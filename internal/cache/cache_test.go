package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets × 2 ways × 64B = 512B
	return New(Config{Name: "t", SizeBytes: 512, Assoc: 2, BlockBytes: 64, HitLatency: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if hit, _ := c.access(0x100, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.access(0x100, false); !hit {
		t.Error("second access missed")
	}
	if hit, _ := c.access(0x13f, false); !hit {
		t.Error("same-block access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 accesses 1 miss", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small()
	// Three blocks mapping to the same set (set stride = 4 sets * 64B = 256B).
	a, b, d := uint64(0x000), uint64(0x400), uint64(0x800)
	c.access(a, false)
	c.access(b, false)
	c.access(a, false) // a is now MRU, b is LRU
	c.access(d, false) // evicts b
	if !c.Probe(a) {
		t.Error("a evicted, want retained (MRU)")
	}
	if c.Probe(b) {
		t.Error("b retained, want evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Error("d not present after fill")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	c.access(0x000, true) // dirty
	c.access(0x400, false)
	_, dirtyEvict := c.access(0x800, false) // evicts dirty 0x000
	if !dirtyEvict {
		t.Error("dirty eviction not reported")
	}
	if c.Stats().Writeback != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writeback)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := small()
	c.Probe(0x40)
	if c.Stats().Accesses != 0 {
		t.Error("Probe counted as access")
	}
	c.access(0x000, false)
	c.access(0x400, false)
	c.Probe(0x000) // must NOT refresh LRU
	c.access(0x800, false)
	if c.Probe(0x000) {
		t.Error("Probe refreshed LRU ordering")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "z", SizeBytes: 0, Assoc: 2, BlockBytes: 64},
		{Name: "n", SizeBytes: 500, Assoc: 2, BlockBytes: 64},
		{Name: "b", SizeBytes: 512, Assoc: 2, BlockBytes: 48},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	// Cold: L1 miss + L2 miss + memory.
	if got := h.AccessData(0x1000, false); got != 2+20+200 {
		t.Errorf("cold data latency = %d, want 222", got)
	}
	// Warm: L1 hit.
	if got := h.AccessData(0x1000, false); got != 2 {
		t.Errorf("warm data latency = %d, want 2", got)
	}
	if h.MemAccesses != 1 {
		t.Errorf("MemAccesses = %d, want 1", h.MemAccesses)
	}
	// Instruction path has its own L1 but shares L2: a fetch of the block
	// the data access warmed misses L1I yet hits L2.
	if got := h.AccessInst(0x1000); got != 2+20 {
		t.Errorf("L2-warm inst latency = %d, want 22", got)
	}
	if got := h.AccessInst(0x1000); got != 2 {
		t.Errorf("warm inst latency = %d, want 2", got)
	}
	// A genuinely cold block goes all the way to memory.
	if got := h.AccessInst(0x2000000); got != 222 {
		t.Errorf("cold inst latency = %d, want 222", got)
	}
}

func TestL2HitAfterL1Evict(t *testing.T) {
	h := DefaultHierarchy()
	h.AccessData(0x0, false)
	// L1D is 64KB 2-way with 512 sets: same-set stride is 32KB.
	h.AccessData(0x8000, false)
	h.AccessData(0x10000, false) // evicts 0x0 from L1 but it stays in L2
	if got := h.AccessData(0x0, false); got != 2+20 {
		t.Errorf("L2 hit latency = %d, want 22", got)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := DefaultHierarchy()
	h.AccessData(0, false)
	h.AccessInst(0)
	h.ResetStats()
	if h.L1D.Stats().Accesses != 0 || h.L1I.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 || h.MemAccesses != 0 {
		t.Error("ResetStats left counters")
	}
}

// Property: after accessing address a, an immediate re-access hits,
// regardless of intervening accesses to fewer than assoc other blocks in the
// same set.
func TestHitAfterFillProperty(t *testing.T) {
	f := func(addr uint64) bool {
		c := small()
		addr &= 0xffffff
		c.access(addr, false)
		hit, _ := c.access(addr, false)
		return hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: working set of `assoc` blocks in one set never thrashes.
func TestAssocWorkingSetProperty(t *testing.T) {
	f := func(seed uint16) bool {
		c := small()
		setStride := uint64(4 * 64)
		a := uint64(seed) * 64
		b := a + setStride
		c.access(a, false)
		c.access(b, false)
		for i := 0; i < 10; i++ {
			if h, _ := c.access(a, false); !h {
				return false
			}
			if h, _ := c.access(b, false); !h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
