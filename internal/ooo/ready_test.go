package ooo

import (
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// unreadySources counts e's sources (a trace's live-ins) whose registers
// hold no value yet, a register named twice counting twice.
func unreadySources(c *CPU, e *ROBEntry) int {
	srcs := []int{e.PhysSrc1, e.PhysSrc2}
	if e.IsTrace() {
		srcs = e.traceLiveInPhys
	}
	n := 0
	for _, p := range srcs {
		if p >= 0 && !c.regs[p].ready {
			n++
		}
	}
	return n
}

// checkReadyQueue asserts the wakeup invariant by brute force: the RS — the
// ROB entries not yet issued — has rsLen entries, each entry's wait count is
// its number of unready sources, and readyQ is exactly the RS entries whose
// sources are all ready, in dispatch (ROB) order.
func checkReadyQueue(t *testing.T, c *CPU) {
	t.Helper()
	var want []*ROBEntry
	rs := 0
	for _, e := range c.robLive() {
		if e.Issued {
			continue
		}
		rs++
		n := unreadySources(c, e)
		if int(e.waiting) != n {
			t.Fatalf("cycle %d: seq %d waits on %d sources, %d unready", c.cycle, e.Seq, e.waiting, n)
		}
		if n == 0 {
			want = append(want, e)
		}
	}
	if rs != c.rsLen {
		t.Fatalf("cycle %d: rsLen = %d, %d unissued ROB entries", c.cycle, c.rsLen, rs)
	}
	seqs := func(q []*ROBEntry) []uint64 {
		out := make([]uint64, len(q))
		for i, e := range q {
			out[i] = e.Seq
		}
		return out
	}
	got, exp := seqs(c.readyQ), seqs(want)
	if len(got) != len(exp) {
		t.Fatalf("cycle %d: ready queue %v, want %v", c.cycle, got, exp)
	}
	for i := range got {
		if got[i] != exp[i] || c.readyQ[i] != want[i] {
			t.Fatalf("cycle %d: ready queue %v, want %v", c.cycle, got, exp)
		}
	}
}

// stepChecked runs c to the halt one cycle at a time, checking the ready
// queue after every cycle.
func stepChecked(t *testing.T, c *CPU) {
	t.Helper()
	for !c.stats.HaltSeen {
		if c.cycle > 1_000_000 {
			t.Fatalf("no halt after %d cycles: %s", c.cycle, c.DebugState())
		}
		c.step()
		checkReadyQueue(t, c)
	}
}

// squashyLoop mixes the two squash sources: an LCG-driven branch the
// predictor cannot learn, and a store whose address comes from a slow
// divide chain followed by a load of the same address, which issues early
// under memory speculation and must replay. The divide chain starts before
// the branch and is consumed after it, so a mispredict squashes consumers
// still waiting on a surviving producer, whose wakeup then meets their
// stale registrations.
func squashyLoop() *program.Program {
	b := program.NewBuilder("squashy")
	b.Li(isa.R(1), 12345) // lcg state
	b.Li(isa.R(2), 5)
	b.Li(isa.R(7), 4096)
	b.Li(isa.R(10), 0) // i
	b.Li(isa.R(11), 120)
	b.Li(isa.R(13), 2048)
	b.Label("head")
	b.Muli(isa.R(1), isa.R(1), 1103515245)
	b.Addi(isa.R(1), isa.R(1), 12345)
	b.Andi(isa.R(1), isa.R(1), 0x7fffffff)
	b.Mul(isa.R(3), isa.R(2), isa.R(2))
	b.Div(isa.R(6), isa.R(3), isa.R(2))
	b.Div(isa.R(6), isa.R(6), isa.R(2)) // r6 = 1, slowly
	b.Shri(isa.R(5), isa.R(1), 16)
	b.Andi(isa.R(5), isa.R(5), 1)
	b.Beq(isa.R(5), isa.R(0), "skip")
	b.Addi(isa.R(4), isa.R(4), 1)
	b.Label("skip")
	b.Mul(isa.R(8), isa.R(13), isa.R(6)) // r8 = r13
	b.Add(isa.R(9), isa.R(10), isa.R(4))
	b.St(isa.R(8), 0, isa.R(9))
	b.Ld(isa.R(12), isa.R(13), 0)
	b.St(isa.R(7), 0, isa.R(12))
	b.Addi(isa.R(7), isa.R(7), 8)
	b.Addi(isa.R(10), isa.R(10), 1)
	b.Blt(isa.R(10), isa.R(11), "head")
	b.Halt()
	return b.MustBuild()
}

// TestReadyQueueInvariantUnderSquashes steps a program with branch
// mispredicts and memory-order squashes, checking the ready queue each cycle.
func TestReadyQueueInvariantUnderSquashes(t *testing.T) {
	c := New(DefaultConfig(), squashyLoop(), mem.New(), nil)
	checkReadyQueue(t, c)
	stepChecked(t, c)
	st := c.Stats()
	if st.BranchMispredicts == 0 || st.MemViolations == 0 {
		t.Fatalf("mispredicts %d, memory violations %d: want both > 0", st.BranchMispredicts, st.MemViolations)
	}
}

// TestReadyQueueInvariantWithTraces covers the trace wakeup sites: trace
// live-ins wait like sources, live-outs written early (LiveOutDelay) wake
// the next invocation and host consumers, and branch-exit squashes rebuild
// the queue around invocations.
func TestReadyQueueInvariantWithTraces(t *testing.T) {
	const n = 60
	cases := []struct {
		name     string
		delays   []int
		wantExit bool
	}{
		{"whole-latency", nil, true},
		{"pipelined-live-outs", []int{2, 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(DefaultConfig(), sumLoop(n), mem.New(), nil)
			tr, b := oneIterInject(t)
			b.eval = func(in TraceInput) TraceResult {
				res := oneIterEval(in)
				if res.ExitMatches && tc.delays != nil {
					res.Latency = 12
					res.LiveOutDelay = tc.delays
				}
				return res
			}
			hooks, injected := injectAtBackedge(5, tr, 1<<30)
			c.SetHooks(hooks)
			stepChecked(t, c)
			if got := c.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
				t.Errorf("r3 = %d, want %d", got, n*(n-1)/2)
			}
			if *injected == 0 || b.evals == 0 {
				t.Fatalf("injected %d, evaluated %d: want both > 0", *injected, b.evals)
			}
			exits := 0
			for _, k := range b.squashes {
				if k == SquashBranchExit {
					exits++
				}
			}
			if tc.wantExit && exits == 0 {
				t.Error("no branch-exit squash exercised")
			}
			b.checkEnded(*injected)
		})
	}
}

// TestReadyQueueInvariantTraceStores runs the store-carrying trace harness:
// host loads and stores interleave with invocations whose store buffers
// forward and whose live-outs feed the host.
func TestReadyQueueInvariantTraceStores(t *testing.T) {
	c := New(DefaultConfig(), storeLoop(24), mem.New(), nil)
	tr, b := storeIterInject(t)
	hooks, injected := injectAtBackedge(4, tr, 1<<30)
	c.SetHooks(hooks)
	stepChecked(t, c)
	if *injected == 0 || c.Stats().TraceFabricStores == 0 {
		t.Fatalf("injected %d, fabric stores %d: want both > 0", *injected, c.Stats().TraceFabricStores)
	}
	b.checkEnded(*injected)
}
