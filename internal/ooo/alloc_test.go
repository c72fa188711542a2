package ooo

import (
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// TestStepSteadyStateAllocsZero pins the hot-loop allocation contract: once
// the CPU's pools and scratch buffers are warm, a simulated cycle performs
// zero heap allocations. Any regression here shows up as GC churn across
// every experiment, so it fails hard rather than by a benchmark delta.
func TestStepSteadyStateAllocsZero(t *testing.T) {
	p := program.NewBuilder("alloc").
		Label("loop").
		Add(isa.R(3), isa.R(1), isa.R(2)).
		Add(isa.R(4), isa.R(3), isa.R(1)).
		Add(isa.R(5), isa.R(4), isa.R(2)).
		Add(isa.R(6), isa.R(5), isa.R(1)).
		Jmp("loop").
		Halt().
		MustBuild()
	checkStepAllocsZero(t, New(DefaultConfig(), p, mem.New(), nil))
}

// TestStepSteadyStateAllocsZeroSquashing extends the contract to the
// wakeup and squash paths: a loop whose branch depends on a loaded
// pseudo-random value wakes dependents at load writeback and mispredicts
// often, so the ready queue is rebuilt inside the measured cycles.
func TestStepSteadyStateAllocsZeroSquashing(t *testing.T) {
	p := program.NewBuilder("alloc-squash").
		Li(isa.R(1), 12345).
		Li(isa.R(13), 2048).
		Label("loop").
		Muli(isa.R(1), isa.R(1), 1103515245).
		Addi(isa.R(1), isa.R(1), 12345).
		Andi(isa.R(1), isa.R(1), 0x7fffffff).
		St(isa.R(13), 0, isa.R(1)).
		Ld(isa.R(5), isa.R(13), 0).
		Shri(isa.R(5), isa.R(5), 16).
		Andi(isa.R(5), isa.R(5), 1).
		Beq(isa.R(5), isa.R(0), "skip").
		Addi(isa.R(4), isa.R(4), 1).
		Label("skip").
		Jmp("loop").
		Halt().
		MustBuild()
	c := New(DefaultConfig(), p, mem.New(), nil)
	before := c.Stats()
	checkStepAllocsZero(t, c)
	after := c.Stats()
	if after.BranchMispredicts == before.BranchMispredicts || after.LoadsExecuted == before.LoadsExecuted {
		t.Fatalf("loop exercised %d mispredicts and %d loads, want both > 0",
			after.BranchMispredicts-before.BranchMispredicts, after.LoadsExecuted-before.LoadsExecuted)
	}
}

// checkStepAllocsZero warms c up, long enough to grow every pool and lap the
// event wheel's 256 ring slots many times, then requires zero heap
// allocations in each of several blocks of 1,000 simulated cycles. It
// measures whole blocks because testing.AllocsPerRun reports an integer
// average: per cycle, a leak under one allocation per cycle would read as 0.
func checkStepAllocsZero(t *testing.T, c *CPU) {
	t.Helper()
	for i := 0; i < 64*wheelSize; i++ {
		c.step()
	}
	block := func() {
		for i := 0; i < 1000; i++ {
			c.step()
		}
	}
	for b := 0; b < 5; b++ {
		if n := testing.AllocsPerRun(1, block); n != 0 {
			t.Fatalf("steady-state step() allocates %.0f times per 1,000 cycles, want 0", n)
		}
	}
}
