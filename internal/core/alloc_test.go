package core

import (
	"context"
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// TestBeforeFetchKeyOnlyAllocsZero pins key-first trace detection: on a
// warmed accel-spec System, a fetched branch whose trace is cold, or hot but
// disabled, costs the key walk and the cache lookups and allocates nothing.
// Only a mapping session builds a trace body.
func TestBeforeFetchKeyOnlyAllocsZero(t *testing.T) {
	const n = 100_000
	m := mem.New()
	seedMem(m, n)
	params := DefaultParams()
	params.Mode = ModeAccel
	sys := New(params, hotLoop(n), m)
	// Stop mid-loop, where the walk from the backedge follows the loop.
	if err := sys.CPU().RunCommitsCtx(context.Background(), 20_000); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Offloads == 0 {
		t.Fatal("warm-up offloaded nothing")
	}
	sys.abortSessionForSample()
	const anchor = 11 // the loop's backedge
	_, key, _, ok := sys.walkTrace(anchor, false)
	if !ok {
		t.Fatal("no trace key at the backedge")
	}
	measure := func(state string) {
		t.Helper()
		avg := testing.AllocsPerRun(100, func() {
			if tr, _ := sys.beforeFetch(anchor); tr != nil {
				t.Fatalf("%s trace: beforeFetch injected", state)
			}
		})
		if avg != 0 {
			t.Errorf("%s trace: beforeFetch allocates %.2f times per call, want 0", state, avg)
		}
		if sys.session != nil {
			t.Fatalf("%s trace: beforeFetch opened a mapping session", state)
		}
	}

	// Cold: no configuration and below the hot threshold.
	sys.cc.Invalidate(key)
	sys.tc.Unhot(key)
	sys.trace(key).disabled = false
	measure("cold")

	// Hot but disabled: commit the key's three directions until the
	// T-Cache flags it, then blacklist the trace.
	for i := 0; i < 3*int(sys.params.TCache.HotThreshold); i++ {
		sys.tc.OnBranchCommit(anchor, key.Dir(i%3))
	}
	if !sys.tc.IsHot(key) {
		t.Fatal("training did not make the trace hot")
	}
	sys.trace(key).disabled = true
	measure("disabled")
}

// exitLoop builds an endless loop whose first branch depends on a
// pseudo-random value and falls through about once in eight iterations: the
// hot path offloads, and the rare path leaves it as a branch-exit squash.
func exitLoop() *program.Program {
	b := program.NewBuilder("exitloop")
	b.Li(isa.R(1), 12345)
	b.Li(isa.R(3), 0)
	b.Label("loop")
	b.Muli(isa.R(1), isa.R(1), 1103515245)
	b.Addi(isa.R(1), isa.R(1), 12345)
	b.Andi(isa.R(1), isa.R(1), 0x7fffffff)
	b.Shri(isa.R(5), isa.R(1), 16)
	b.Andi(isa.R(5), isa.R(5), 7)
	b.Bne(isa.R(5), isa.R(0), "common")
	b.Addi(isa.R(4), isa.R(4), 1)
	b.Label("common")
	b.Ld(isa.R(6), isa.R(3), 0)
	b.Add(isa.R(6), isa.R(6), isa.R(1))
	b.St(isa.R(3), 0, isa.R(6))
	b.Addi(isa.R(3), isa.R(3), 8)
	b.Andi(isa.R(3), isa.R(3), 4095)
	b.Jmp("loop")
	b.Halt()
	return b.MustBuild()
}

// TestOffloadSteadyStateAllocsZero pins the accelerated path's allocation
// contract: once warm, offloading an invocation, evaluating it on the fabric,
// and committing or squashing it allocate nothing. Each measured block of
// 1,000 committed instructions offloads and takes a branch-exit squash.
func TestOffloadSteadyStateAllocsZero(t *testing.T) {
	params := DefaultParams()
	params.Mode = ModeAccel
	sys := New(params, exitLoop(), mem.New())
	ctx := context.Background()
	if err := sys.CPU().RunCommitsCtx(ctx, 200_000); err != nil {
		t.Fatal(err)
	}
	var offloads, exits uint64
	var err error
	block := func() {
		before := sys.Stats()
		err = sys.CPU().RunCommitsCtx(ctx, 1000)
		after := sys.Stats()
		offloads, exits = after.Offloads-before.Offloads, after.BranchExits-before.BranchExits
	}
	for b := 0; b < 8; b++ {
		allocs := testing.AllocsPerRun(1, block)
		if err != nil {
			t.Fatal(err)
		}
		if offloads == 0 || exits == 0 {
			t.Fatalf("block %d: %d offloads, %d branch exits; want both > 0", b, offloads, exits)
		}
		if allocs != 0 {
			t.Errorf("block %d: %.0f allocations over %d offloads, want 0", b, allocs, offloads)
		}
	}
}
