package core

import (
	"context"
	"testing"

	"dynaspam/internal/mem"
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
			if tr, stall := sys.beforeFetch(anchor); tr != nil || stall {
				t.Fatalf("%s trace: beforeFetch injected or stalled", state)
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
