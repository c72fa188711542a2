package ooo

import (
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// traceHarness drives the pipeline with a hand-built TraceInject: the
// program is a counted loop; the inject covers one loop iteration and is
// offered every time fetch reaches the backedge.
//
// Loop body (pc 3..7): r3 += r1; r1 += 1; blt r1, r2, head — plus a store
// variant used by the memory tests.
func sumLoop(n int64) *program.Program {
	b := program.NewBuilder("sum")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), n)
	b.Li(isa.R(3), 0)
	b.Label("head")
	b.Add(isa.R(3), isa.R(3), isa.R(1))
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}

// injectAtBackedge returns hooks that inject tr whenever fetch reaches pc,
// bounded by maxInjects. Like the real framework's block-once rule, an
// invocation that squashes suppresses the next injection so the host
// re-executes that occurrence (otherwise an exiting final iteration would
// re-inject forever).
func injectAtBackedge(pc int, build func() *TraceInject, maxInjects int) (Hooks, *int) {
	count := new(int)
	blockNext := false
	return Hooks{
		BeforeFetch: func(fetchPC int) (*TraceInject, bool) {
			if fetchPC != pc || *count >= maxInjects {
				return nil, false
			}
			if blockNext {
				blockNext = false
				return nil, false
			}
			*count++
			tr := build()
			prevSquash := tr.OnSquash
			tr.OnSquash = func(kind SquashKind) {
				blockNext = true
				if prevSquash != nil {
					prevSquash(kind)
				}
			}
			return tr, false
		},
	}, count
}

// oneIterInject builds a fat atomic instruction equivalent to one loop
// iteration of sumLoop starting at the backedge (pc 5): blt taken, then
// add/addi. Live-ins r1, r2, r3; live-outs r1, r3.
func oneIterInject(evalCount *int) *TraceInject {
	tr := &TraceInject{
		StartPC:  5,
		ExitPC:   5,
		LiveIns:  []isa.Reg{isa.R(1), isa.R(2), isa.R(3)},
		LiveOuts: []isa.Reg{isa.R(3), isa.R(1)},
		NumInsts: 3,
		PredDirs: []bool{true},
	}
	tr.Evaluate = func(in TraceInput) TraceResult {
		*evalCount++
		r1, r2, r3 := int64(in.LiveIns[0]), int64(in.LiveIns[1]), int64(in.LiveIns[2])
		if r1 >= r2 {
			// The backedge would not be taken: off the recorded path.
			return TraceResult{
				ExitMatches:  false,
				ActualExitPC: 6,
				Branches:     []BranchRec{{PC: 5, Taken: false}},
				Latency:      3,
				Ops:          1,
			}
		}
		return TraceResult{
			ExitMatches:  true,
			ActualExitPC: 5,
			Branches:     []BranchRec{{PC: 5, Taken: true}},
			LiveOuts:     []uint64{uint64(r3 + r1), uint64(r1 + 1)},
			Latency:      4,
			Ops:          3,
		}
	}
	return tr
}

func TestTraceInjectCommitsAtomically(t *testing.T) {
	const n = 40
	p := sumLoop(n)
	cpu := New(DefaultConfig(), p, mem.New(), nil)
	evals := 0
	commits, squashes := 0, 0
	hooks, injected := injectAtBackedge(5, func() *TraceInject {
		tr := oneIterInject(&evals)
		tr.OnCommit = func(res *TraceResult) { commits++ }
		tr.OnSquash = func(kind SquashKind) { squashes++ }
		return tr
	}, 1<<30)
	cpu.SetHooks(hooks)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	// Architectural result: sum 0..n-1.
	if got := cpu.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
		t.Errorf("r3 = %d, want %d", got, n*(n-1)/2)
	}
	if got := cpu.ArchRegInt(isa.R(1)); got != n {
		t.Errorf("r1 = %d, want %d", got, n)
	}
	if *injected == 0 || evals == 0 || commits == 0 {
		t.Errorf("inject/eval/commit = %d/%d/%d, want all > 0", *injected, evals, commits)
	}
	if *injected != commits+squashes {
		t.Errorf("accounting: injected %d != commits %d + squashes %d", *injected, commits, squashes)
	}
	if cpu.Stats().TraceCommittedOps == 0 {
		t.Error("no ops retired via traces")
	}
}

func TestTraceInjectBranchExitSquashes(t *testing.T) {
	// Inject with a wrong recorded direction at the loop's end: the final
	// iteration's invocation must squash with a branch-exit and the host
	// must re-execute it, preserving the architectural result.
	const n = 12
	p := sumLoop(n)
	cpu := New(DefaultConfig(), p, mem.New(), nil)
	evals := 0
	var kinds []SquashKind
	hooks, _ := injectAtBackedge(5, func() *TraceInject {
		tr := oneIterInject(&evals)
		tr.OnSquash = func(kind SquashKind) { kinds = append(kinds, kind) }
		return tr
	}, 1<<30)
	cpu.SetHooks(hooks)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
		t.Errorf("r3 = %d, want %d", got, n*(n-1)/2)
	}
	foundExit := false
	for _, k := range kinds {
		if k == SquashBranchExit {
			foundExit = true
		}
	}
	if !foundExit {
		t.Errorf("no branch-exit squash recorded (kinds %v)", kinds)
	}
	if cpu.Stats().TraceSquashes == 0 {
		t.Error("TraceSquashes = 0")
	}
}

// storeLoop writes i to out[i] each iteration.
func storeLoop(n int64) *program.Program {
	b := program.NewBuilder("stloop")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), n)
	b.Li(isa.R(4), 1024) // out base
	b.Label("head")
	b.St(isa.R(4), 0, isa.R(1))
	b.Addi(isa.R(4), isa.R(4), 8)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}

// storeIterInject builds a fat atomic instruction equivalent to one loop
// iteration of storeLoop starting at the backedge (pc 4), with its store in
// the invocation's store buffer. Live-ins r1, r2, r4; live-outs r4, r1.
func storeIterInject() *TraceInject {
	tr := &TraceInject{
		StartPC:  4,
		ExitPC:   4,
		LiveIns:  []isa.Reg{isa.R(1), isa.R(2), isa.R(4)},
		LiveOuts: []isa.Reg{isa.R(4), isa.R(1)},
		NumInsts: 4,
		PredDirs: []bool{true},
		StorePCs: []int{1},
	}
	tr.Evaluate = func(in TraceInput) TraceResult {
		r1, r2, r4 := int64(in.LiveIns[0]), int64(in.LiveIns[1]), int64(in.LiveIns[2])
		if r1 >= r2 {
			return TraceResult{ExitMatches: false, ActualExitPC: 5,
				Branches: []BranchRec{{PC: 4, Taken: false}}, Latency: 2, Ops: 1}
		}
		return TraceResult{
			ExitMatches:  true,
			ActualExitPC: 4,
			Branches:     []BranchRec{{PC: 4, Taken: true}},
			Stores:       []StoreRecord{{PC: 1, Addr: uint64(r4), Value: uint64(r1)}},
			LiveOuts:     []uint64{uint64(r4 + 8), uint64(r1 + 1)},
			Latency:      4,
			Ops:          4,
		}
	}
	return tr
}

func TestTraceInjectStoresApplyAtCommit(t *testing.T) {
	const n = 24
	p := storeLoop(n)
	m := mem.New()
	cpu := New(DefaultConfig(), p, m, nil)
	hooks, injected := injectAtBackedge(4, storeIterInject, 1<<30)
	cpu.SetHooks(hooks)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if *injected == 0 {
		t.Fatal("nothing injected")
	}
	for i := int64(0); i < n; i++ {
		if got := m.ReadInt(uint64(1024 + i*8)); got != i {
			t.Fatalf("out[%d] = %d, want %d", i, got, i)
		}
	}
	if cpu.Stats().TraceFabricStores == 0 {
		t.Error("no fabric stores counted")
	}
}

func TestTraceInjectHostForwardsFromTraceStores(t *testing.T) {
	// A host load younger than an in-flight invocation must observe the
	// invocation's buffered store.
	b := program.NewBuilder("fwd")
	b.Li(isa.R(1), 5)
	b.Li(isa.R(2), 2048)
	b.Label("spot") // inject here, then the host loads the stored value
	b.Ld(isa.R(3), isa.R(2), 0)
	b.Halt()
	p := b.MustBuild()

	cpu := New(DefaultConfig(), p, mem.New(), nil)
	injected := false
	cpu.SetHooks(Hooks{
		BeforeFetch: func(pc int) (*TraceInject, bool) {
			if pc == 2 && !injected {
				injected = true
				tr := &TraceInject{
					StartPC: 2, ExitPC: 2,
					LiveIns:  []isa.Reg{isa.R(1), isa.R(2)},
					LiveOuts: []isa.Reg{},
					NumInsts: 1,
				}
				tr.Evaluate = func(in TraceInput) TraceResult {
					return TraceResult{
						ExitMatches:  true,
						ActualExitPC: 2,
						Stores:       []StoreRecord{{PC: 99, Addr: in.LiveIns[1], Value: 777}},
						LiveOuts:     []uint64{},
						Latency:      6,
						Ops:          1,
					}
				}
				return tr, false
			}
			return nil, false
		},
	})
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(3)); got != 777 {
		t.Errorf("host load = %d, want 777 (forwarded from trace store buffer)", got)
	}
}

func TestSquashKindStrings(t *testing.T) {
	for k, want := range map[SquashKind]string{
		SquashBranchExit: "branch-exit",
		SquashMemOrder:   "mem-order",
		SquashExternal:   "external",
		SquashKind(99):   "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("SquashKind(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestTraceLiveOutPipelining(t *testing.T) {
	// With per-live-out delays, a dependent successor invocation can
	// begin before the previous one fully completes: verify total cycles
	// beat a serialized bound.
	const n = 200
	p := sumLoop(n)
	cpu := New(DefaultConfig(), p, mem.New(), nil)
	evals := 0
	hooks, injected := injectAtBackedge(5, func() *TraceInject {
		tr := oneIterInject(&evals)
		// Long tail latency, early live-outs: pipelining should hide
		// the tail.
		base := tr.Evaluate
		tr.Evaluate = func(in TraceInput) TraceResult {
			res := base(in)
			if res.ExitMatches {
				res.Latency = 30
				res.LiveOutDelay = []int{2, 2}
			}
			return res
		}
		return tr
	}, 1<<30)
	cpu.SetHooks(hooks)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
		t.Fatalf("r3 = %d, want %d", got, n*(n-1)/2)
	}
	// Serialized invocations would cost >= injected*30 cycles; pipelined
	// execution must be far below that.
	if cpu.Stats().Cycles > uint64(*injected*30) {
		t.Errorf("cycles = %d with %d invocations: live-out pipelining ineffective",
			cpu.Stats().Cycles, *injected)
	}
}
