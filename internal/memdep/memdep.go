// Package memdep implements a store-sets memory dependence predictor in the
// style of Chrysos & Emer, which the paper reuses to let both the host
// pipeline and the spatial fabric speculatively reorder memory operations
// (§2.2.2, §3.2).
//
// The predictor keeps two tables:
//
//   - SSIT (store-set ID table): maps an instruction PC to a store-set id.
//   - LFST (last fetched store table): maps a store-set id to the most recent
//     in-flight store of that set.
//
// A load whose PC maps to a valid store set must wait for the store recorded
// in the LFST; stores in the same set are serialized with each other. When a
// memory-order violation is detected at commit, the offending load and store
// are assigned to a common set so the next encounter synchronizes.
package memdep

// InvalidTag marks "no store to wait for".
const InvalidTag = -1

// Config sets the predictor geometry.
type Config struct {
	SSITEntries int // power of two
	NumSets     int
	// CyclicClearInterval, if > 0, clears the SSIT every N Violation or
	// Advance notifications, preventing stale sets from serializing
	// forever (the standard store-sets "cyclic clearing" mechanism).
	CyclicClearInterval int
}

// DefaultConfig returns a 4K-entry SSIT with 256 store sets and periodic
// clearing.
func DefaultConfig() Config {
	return Config{SSITEntries: 4096, NumSets: 256, CyclicClearInterval: 1 << 16}
}

// Predictor is the store-sets unit. It is shared by the host LSQ and the
// fabric's LDST units; both identify memory operations by their static PC and
// in-flight stores by caller-chosen tags (e.g. ROB indices or fabric
// sequence numbers).
type Predictor struct {
	cfg     Config
	ssit    []int // pc index -> store set id, or InvalidTag
	lfst    []int // set id -> last in-flight store tag, or InvalidTag
	nextSet int
	ticks   int

	stats Stats
}

// Stats counts predictor events.
type Stats struct {
	LoadChecks   uint64
	LoadStalls   uint64
	StoreChecks  uint64
	StoreSerials uint64
	Violations   uint64
	Clears       uint64
}

// New returns an empty predictor.
func New(cfg Config) *Predictor {
	if cfg.SSITEntries <= 0 || cfg.SSITEntries&(cfg.SSITEntries-1) != 0 {
		panic("memdep: SSIT entries must be a power of two")
	}
	if cfg.NumSets <= 0 {
		panic("memdep: NumSets must be positive")
	}
	p := &Predictor{
		cfg:  cfg,
		ssit: make([]int, cfg.SSITEntries),
		lfst: make([]int, cfg.NumSets),
	}
	p.clear()
	for i := range p.lfst {
		p.lfst[i] = InvalidTag
	}
	return p
}

func (p *Predictor) clear() {
	for i := range p.ssit {
		p.ssit[i] = InvalidTag
	}
	p.stats.Clears++
}

func (p *Predictor) idx(pc uint64) int {
	return int(pc) & (p.cfg.SSITEntries - 1)
}

// CheckLoad consults the predictor for a load at pc. It returns the tag of
// the store the load must wait for, or InvalidTag if the load may issue
// speculatively ahead of unresolved stores.
func (p *Predictor) CheckLoad(pc uint64) int {
	p.stats.LoadChecks++
	set := p.ssit[p.idx(pc)]
	if set == InvalidTag {
		return InvalidTag
	}
	tag := p.lfst[set]
	if tag != InvalidTag {
		p.stats.LoadStalls++
	}
	return tag
}

// CheckStore consults the predictor for a store at pc and, if the store
// belongs to a set, registers it as the set's last fetched store under tag.
// It returns the tag of the previous store the new one must order after, or
// InvalidTag.
func (p *Predictor) CheckStore(pc uint64, tag int) int {
	p.stats.StoreChecks++
	set := p.ssit[p.idx(pc)]
	if set == InvalidTag {
		return InvalidTag
	}
	prev := p.lfst[set]
	p.lfst[set] = tag
	if prev != InvalidTag {
		p.stats.StoreSerials++
	}
	return prev
}

// StoreRetired removes the store identified by tag from the LFST if it is
// still recorded (it completed or was squashed).
func (p *Predictor) StoreRetired(pc uint64, tag int) {
	set := p.ssit[p.idx(pc)]
	if set == InvalidTag {
		return
	}
	if p.lfst[set] == tag {
		p.lfst[set] = InvalidTag
	}
	p.tick()
}

// Violation trains the predictor after a memory-order violation between the
// load at loadPC and the older store at storePC: both are placed in a common
// store set (allocating one if neither has a set).
func (p *Predictor) Violation(loadPC, storePC uint64) {
	p.stats.Violations++
	li, si := p.idx(loadPC), p.idx(storePC)
	ls, ss := p.ssit[li], p.ssit[si]
	switch {
	case ls == InvalidTag && ss == InvalidTag:
		set := p.allocSet()
		p.ssit[li], p.ssit[si] = set, set
	case ls == InvalidTag:
		p.ssit[li] = ss
	case ss == InvalidTag:
		p.ssit[si] = ls
	default:
		// Both assigned: merge by the lower-numbered set (the standard
		// declarative store-set merge rule).
		if ls < ss {
			p.ssit[si] = ls
		} else {
			p.ssit[li] = ss
		}
	}
	p.tick()
}

func (p *Predictor) allocSet() int {
	set := p.nextSet
	p.nextSet = (p.nextSet + 1) % p.cfg.NumSets
	p.lfst[set] = InvalidTag
	return set
}

func (p *Predictor) tick() {
	if p.cfg.CyclicClearInterval <= 0 {
		return
	}
	p.ticks++
	if p.ticks >= p.cfg.CyclicClearInterval {
		p.ticks = 0
		p.clear()
		for i := range p.lfst {
			p.lfst[i] = InvalidTag
		}
	}
}

// Flush drops all in-flight store registrations (pipeline squash) while
// preserving the trained SSIT.
func (p *Predictor) Flush() {
	for i := range p.lfst {
		p.lfst[i] = InvalidTag
	}
}

// SameSet reports whether the instructions at PCs a and b currently share a
// store set. The fabric's LDST units use this to decide whether a load must
// order after an older store of the same trace without involving the LFST
// (which tracks only host-pipeline store tags).
func (p *Predictor) SameSet(a, b uint64) bool {
	sa, sb := p.ssit[p.idx(a)], p.ssit[p.idx(b)]
	return sa != InvalidTag && sa == sb
}

// Stats returns a copy of the counters.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats clears counters without losing trained state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }
