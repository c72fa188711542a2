package ooo

import (
	"context"
	"fmt"
	"math"

	"dynaspam/internal/branch"
	"dynaspam/internal/cache"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/memdep"
	"dynaspam/internal/program"
)

// physReg is one physical register.
type physReg struct {
	value uint64
	ready bool
	// deps heads the register's list of waiting RS entries in the CPU's
	// depNodes pool; 0 when there are none (ready.go).
	deps int32
	// readyAt is the cycle the value became available (feeds the fabric's
	// per-live-in arrival model).
	readyAt uint64
}

// ROBEntry is one in-flight instruction (or trace invocation).
type ROBEntry struct {
	Seq  uint64
	PC   int
	Inst isa.Inst

	// Renamed registers.
	PhysSrc1, PhysSrc2 int
	PhysDest           int // -1 when no destination
	OldPhys            int // previous mapping of the destination arch reg

	Dispatched bool
	Issued     bool
	Executed   bool

	// Branch state.
	PredTaken  bool
	PredTarget int
	HistAtPred uint64
	Taken      bool
	Target     int

	// Memory state.
	Addr      uint64
	AddrValid bool
	StoreVal  uint64
	LQIndex   int
	SQIndex   int

	// Trace invocation state (fat atomic instruction).
	Trace        *TraceInject
	TraceRes     *TraceResult
	DispatchedAt uint64
	// evalStartAt is the cycle fabric evaluation began (issueTrace);
	// cycle accounting splits head-of-ROB occupancy into config-wait and
	// evaluation against it.
	evalStartAt uint64
	// traceLiveOutPhys holds the physical registers allocated for the
	// invocation's live-outs; traceOldPhys the mappings they replaced.
	traceLiveOutPhys []int
	traceOldPhys     []int
	traceLiveInPhys  []int

	// active is true while the entry occupies the ROB. Writeback checks it
	// instead of scanning the ROB: completions of entries that committed or
	// squashed while their event was in flight are skipped.
	active bool
	// pending counts scheduled-but-unfired completion events. An entry is
	// recycled through the CPU's pool only when it reaches zero, so a late
	// event can never observe a reused entry.
	pending int32
	// waiting counts the entry's source registers (a trace's live-ins)
	// that were not ready at rename and have not been written since; the
	// entry joins the ready queue when it reaches zero (ready.go).
	waiting int32
}

// IsTrace reports whether the entry is a fabric trace invocation.
func (e *ROBEntry) IsTrace() bool { return e.Trace != nil }

// RSEntry is a reservation-station view of a waiting instruction, exposed to
// the SelectOverride hook so the DynaSpAM mapper can score candidates by
// their renamed producers.
type RSEntry struct {
	ROB *ROBEntry
}

// Seq returns the entry's sequence number.
func (r *RSEntry) Seq() uint64 { return r.ROB.Seq }

// PC returns the entry's program counter.
func (r *RSEntry) PC() int { return r.ROB.PC }

// Inst returns the instruction.
func (r *RSEntry) Inst() isa.Inst { return r.ROB.Inst }

// PhysSrcs returns the renamed source registers (-1 when absent).
func (r *RSEntry) PhysSrcs() (int, int) { return r.ROB.PhysSrc1, r.ROB.PhysSrc2 }

// PhysDest returns the renamed destination register (-1 when absent).
func (r *RSEntry) PhysDest() int { return r.ROB.PhysDest }

// completion is a scheduled writeback event.
type completion struct {
	entry *ROBEntry
	// kind selects the writeback action.
	kind compKind
	// liveOutIdx is used by compTraceLiveOut.
	liveOutIdx int
}

type compKind int

const (
	compALU compKind = iota
	compBranch
	compLoad
	compStore
	compTraceDone
	compTraceLiveOut
)

// fetchSlot is an instruction moving through the in-order front end.
type fetchSlot struct {
	entry   *ROBEntry
	readyAt uint64 // earliest rename cycle
}

// CPU is the simulated machine. Create one with New, then call Run.
type CPU struct {
	cfg   Config
	prog  *program.Program
	mem   *mem.Memory
	hier  *cache.Hierarchy
	bp    *branch.Predictor
	mdp   *memdep.Predictor
	hooks Hooks

	cycle uint64
	seq   uint64

	pc          int
	fetchStall  uint64 // fetch blocked until this cycle (icache miss)
	haltFetched bool
	// fetchSuppressed stops fetch entirely while the pipeline drains to the
	// commit point (DrainCtx); squash redirects still update pc but nothing
	// new enters the front end.
	fetchSuppressed bool
	// commitPC is the PC of the next instruction in committed program
	// order, latched at every commit (the drained machine resumes here).
	commitPC int

	// Front-end queue (fetched, waiting for rename+dispatch), as a
	// head-indexed deque over feBuf: pops advance feHead, pushes append.
	// Access through feLive/feLen/fePush/fePopFront only.
	feBuf  []fetchSlot
	feHead int

	// Register renaming.
	rat          []int // arch reg -> phys
	committedRAT []int
	regs         []physReg
	freeList     []int

	// Backend structures. The ROB is a head-indexed deque like the front
	// end (robLive/robLen/robPush/robPopFront); loads and strs keep their
	// program order, with removals compacting in place. The reservation
	// stations are the ROB entries not yet issued: rsLen counts them, and
	// readyQ holds those whose sources are all ready, in dispatch order
	// (ready.go). robTraces counts trace invocations in the ROB, so the
	// memory-ordering checks skip their ROB walks when there are none.
	robBuf    []*ROBEntry // in flight, oldest first, starting at robHead
	robHead   int
	rsLen     int
	readyQ    []*ROBEntry
	robTraces int
	loads     []*ROBEntry // load queue (program order)
	strs      []*ROBEntry // store queue (program order)

	// Wakeup list storage (ready.go): the nodes of every register's
	// dependent list, and the head of the list of recycled nodes.
	depNodes []depNode
	depFree  int32

	// Completion events, bucketed by cycle (see wheel.go).
	wheel eventWheel

	// Per-FU-unit next-free cycle, indexed by pool then unit.
	fuFree [isa.NumFUTypes][]uint64

	// Cycle accounting (internal/cpistack). classifyCycle charges every
	// counted cycle to exactly one cause, so cpi.Total() == stats.Cycles
	// at all times — the sum-exactness invariant the cpistack tests pin.
	cpi cpistack.Stack
	// stallCause is the structural resource that blocked rename last
	// cycle (causeNone when rename was not structurally blocked); it is
	// consulted one cycle later because rename runs after classifyCycle
	// within a step, a deterministic one-cycle attribution skew.
	stallCause cpistack.Cause
	// recoverCause is the active squash-recovery window: set at squash
	// initiation (latest squash wins), cleared by the first subsequent
	// commit. Zero-commit cycles inside the window charge to it.
	recoverCause cpistack.Cause
	// mapperActive marks an open mapping session (set by the framework
	// via SetMapperActive); zero-commit cycles charge to CauseMapper.
	mapperActive bool
	// cpiSampler, when installed, fires every cpiSamplePeriod cycles so
	// observers can export CPI-stack deltas as a time series. Nil (the
	// default) adds one predictable branch to the cycle loop.
	cpiSampler func(cycle uint64)

	// Scratch state owned by the CPU so the per-cycle loop is allocation
	// free in steady state. Contents are valid only within the pipeline
	// stage that fills them.
	entryPool    []*ROBEntry                // recycled ROB entries (LIFO)
	flushScratch []*ROBEntry                // squash: entries awaiting release
	rsWrapBuf    []RSEntry                  // issue: candidate wrappers
	readyScratch [isa.NumFUTypes][]*RSEntry // issue: per-FU candidate lists
	traceScratch []*ROBEntry                // issue: ready trace invocations
	liveInBuf    []uint64                   // issueTrace: TraceInput.LiveIns
	arrivalBuf   []int64                    // issueTrace: TraceInput.Arrivals
	readMemFn    func(addr uint64) uint64   // issueTrace: shared ReadMem closure
	readMemSeq   uint64                     // sequence readMemFn forwards for

	stats Stats
}

// causeNone marks "no cause recorded" in stallCause/recoverCause; it is
// never a valid bucket index.
const causeNone = cpistack.NumCauses

// cpiSamplePeriod is the cpiSampler firing period in cycles (power of two;
// the hot loop masks instead of dividing).
const cpiSamplePeriod = 4096

// New builds a CPU over prog and memory m. A nil hierarchy gets the default
// Table 4 hierarchy; nil predictor configs inside cfg are not allowed (use
// DefaultConfig as a base).
func New(cfg Config, prog *program.Program, m *mem.Memory, hier *cache.Hierarchy) *CPU {
	cfg.validate()
	if hier == nil {
		hier = cache.DefaultHierarchy()
	}
	c := &CPU{
		cfg:          cfg,
		prog:         prog,
		mem:          m,
		hier:         hier,
		bp:           branch.New(cfg.Branch),
		mdp:          memdep.New(cfg.MemDep),
		rat:          make([]int, isa.NumRegs),
		committedRAT: make([]int, isa.NumRegs),
		regs:         make([]physReg, cfg.PhysRegs),
		// Pre-size every queue to its architectural bound so the hot loop
		// never grows a backing array after warm-up.
		feBuf:    make([]fetchSlot, 0, cfg.ROBSize+cfg.FetchWidth),
		robBuf:   make([]*ROBEntry, 0, cfg.ROBSize),
		readyQ:   make([]*ROBEntry, 0, cfg.RSSize),
		loads:    make([]*ROBEntry, 0, cfg.LQSize),
		strs:     make([]*ROBEntry, 0, cfg.SQSize),
		freeList: make([]int, 0, cfg.PhysRegs),
		// Node 0 is the list-end sentinel. Live entries need at most two
		// nodes each, but a squashed consumer's nodes stay on its
		// producers' lists until those are written or reallocated; the
		// workloads peak below three per RS entry. Trace live-ins may
		// grow the pool once, after which it only recycles.
		depNodes: make([]depNode, 1, 4*cfg.RSSize),
		// The issue stage's candidate lists never hold more than the RS's
		// host entries, so they are sized once.
		rsWrapBuf: make([]RSEntry, 0, cfg.RSSize),

		stallCause:   causeNone,
		recoverCause: causeNone,
	}
	// Phys reg 0 is the always-zero register; all arch regs start mapped
	// to it (initial architectural state is zero).
	c.regs[0] = physReg{value: 0, ready: true}
	for r := range c.rat {
		c.rat[r] = 0
		c.committedRAT[r] = 0
	}
	for p := cfg.PhysRegs - 1; p >= 1; p-- {
		c.freeList = append(c.freeList, p)
	}
	// The per-FU candidate lists share one backing array, each capped at
	// RSSize so an append can never spill into its neighbour.
	scratch := make([]*RSEntry, len(c.readyScratch)*cfg.RSSize)
	for fu := range c.readyScratch {
		lo, hi := fu*cfg.RSSize, (fu+1)*cfg.RSSize
		c.readyScratch[fu] = scratch[lo:lo:hi]
	}
	for t := range c.fuFree {
		c.fuFree[t] = make([]uint64, cfg.FUCounts[t])
	}
	// One ReadMem closure for the whole run: issueTrace points readMemSeq
	// at the invocation being evaluated (the TraceInput contract makes
	// ReadMem transient, valid only during Evaluate).
	c.readMemFn = func(addr uint64) uint64 {
		v, _, _ := c.forwardFromStores(c.readMemSeq, addr)
		return v
	}
	return c
}

// ------------------------------------------------- queue/pool accessors --

// robLive returns the in-flight entries, oldest first.
func (c *CPU) robLive() []*ROBEntry { return c.robBuf[c.robHead:] }

// robLen returns the ROB occupancy.
func (c *CPU) robLen() int { return len(c.robBuf) - c.robHead }

func (c *CPU) robPush(e *ROBEntry) {
	if len(c.robBuf) == cap(c.robBuf) && c.robHead > 0 {
		n := copy(c.robBuf, c.robBuf[c.robHead:])
		clearEntryTail(c.robBuf, n)
		c.robBuf = c.robBuf[:n]
		c.robHead = 0
	}
	c.robBuf = append(c.robBuf, e)
	e.active = true
	if e.IsTrace() {
		c.robTraces++
	}
}

func (c *CPU) robPopFront() *ROBEntry {
	e := c.robBuf[c.robHead]
	c.robBuf[c.robHead] = nil
	c.robHead++
	if c.robHead == len(c.robBuf) {
		c.robBuf = c.robBuf[:0]
		c.robHead = 0
	}
	e.active = false
	if e.IsTrace() {
		c.robTraces--
	}
	return e
}

// traceScan returns the ROB for walks that only look at trace invocations:
// empty when none is in flight, which is always the case in baseline.
func (c *CPU) traceScan() []*ROBEntry {
	if c.robTraces == 0 {
		return nil
	}
	return c.robLive()
}

// feLive returns the queued fetch slots, oldest first.
func (c *CPU) feLive() []fetchSlot { return c.feBuf[c.feHead:] }

// feLen returns the front-end queue occupancy.
func (c *CPU) feLen() int { return len(c.feBuf) - c.feHead }

func (c *CPU) fePush(s fetchSlot) {
	if len(c.feBuf) == cap(c.feBuf) && c.feHead > 0 {
		n := copy(c.feBuf, c.feBuf[c.feHead:])
		for i := n; i < len(c.feBuf); i++ {
			c.feBuf[i] = fetchSlot{}
		}
		c.feBuf = c.feBuf[:n]
		c.feHead = 0
	}
	c.feBuf = append(c.feBuf, s)
}

func (c *CPU) fePopFront() {
	c.feBuf[c.feHead] = fetchSlot{}
	c.feHead++
	if c.feHead == len(c.feBuf) {
		c.feBuf = c.feBuf[:0]
		c.feHead = 0
	}
}

// newEntry returns a zeroed ROBEntry, recycled from the pool when possible.
func (c *CPU) newEntry() *ROBEntry {
	if n := len(c.entryPool); n > 0 {
		e := c.entryPool[n-1]
		c.entryPool[n-1] = nil
		c.entryPool = c.entryPool[:n-1]
		return e
	}
	return &ROBEntry{}
}

// freeEntry recycles e once it has left every pipeline structure. Entries
// with unfired completion events are left to the garbage collector instead:
// the events still reference them, and a recycled entry must never be
// observable through a stale event.
func (c *CPU) freeEntry(e *ROBEntry) {
	if e.pending != 0 {
		return
	}
	lo, old, li := e.traceLiveOutPhys[:0], e.traceOldPhys[:0], e.traceLiveInPhys[:0]
	*e = ROBEntry{traceLiveOutPhys: lo, traceOldPhys: old, traceLiveInPhys: li}
	c.entryPool = append(c.entryPool, e)
}

// clearEntryTail zeroes s[from:] so vacated slots do not retain entries.
func clearEntryTail(s []*ROBEntry, from int) {
	for i := from; i < len(s); i++ {
		s[i] = nil
	}
}

// resizeInts returns s with length n, reusing its backing array when large
// enough.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// SetHooks installs the DynaSpAM hooks. Must be called before Run.
func (c *CPU) SetHooks(h Hooks) { c.hooks = h }

// Stats returns a copy of the activity counters.
func (c *CPU) Stats() Stats { return c.stats }

// CPIStack returns the pipeline's cycle-accounting stack. The pointer
// aliases live CPU state: read it between steps or after the run; never
// mutate it. Its Total() equals Stats().Cycles at every step boundary.
func (c *CPU) CPIStack() *cpistack.Stack { return &c.cpi }

// SetMapperActive marks whether a mapping session currently holds the
// pipeline; zero-commit cycles while active are charged to CauseMapper.
// The DynaSpAM framework toggles it at session start and reap.
func (c *CPU) SetMapperActive(active bool) { c.mapperActive = active }

// SetCPISampler installs fn, invoked with the current cycle every
// cpiSamplePeriod (4096) cycles so observers can stream CPI-stack deltas
// (see CPIStack). Pass nil to remove. The callback must not mutate the CPU.
func (c *CPU) SetCPISampler(fn func(cycle uint64)) { c.cpiSampler = fn }

// Cycle returns the current cycle.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Mem returns the architectural memory.
func (c *CPU) Mem() *mem.Memory { return c.mem }

// Hierarchy returns the cache hierarchy (shared with the fabric's LDST
// units).
func (c *CPU) Hierarchy() *cache.Hierarchy { return c.hier }

// Branch returns the branch predictor (shared with trace detection).
func (c *CPU) Branch() *branch.Predictor { return c.bp }

// MemDep returns the store-sets predictor (shared with the fabric).
func (c *CPU) MemDep() *memdep.Predictor { return c.mdp }

// Program returns the program under execution.
func (c *CPU) Program() *program.Program { return c.prog }

// ArchReg returns the committed architectural value of r.
func (c *CPU) ArchReg(r isa.Reg) uint64 { return c.regs[c.committedRAT[r]].value }

// ArchRegInt returns the committed integer value of r.
func (c *CPU) ArchRegInt(r isa.Reg) int64 { return int64(c.ArchReg(r)) }

// ArchRegFloat returns the committed FP value of r.
func (c *CPU) ArchRegFloat(r isa.Reg) float64 { return math.Float64frombits(c.ArchReg(r)) }

// ArchPC returns the PC of the next instruction in committed program order
// (0 before anything commits). Meaningful as a resume point only once the
// pipeline is drained (DrainCtx).
func (c *CPU) ArchPC() int { return c.commitPC }

// SetArchReg installs v as the committed architectural value of r. Legal
// only on a drained pipeline, where the speculative and committed register
// maps agree; both maps are updated. Writes to the zero register are
// discarded. The sampled-simulation driver uses it to write fast-forwarded
// state back into the machine.
func (c *CPU) SetArchReg(r isa.Reg, v uint64) {
	if r == isa.RegZero {
		return
	}
	p := c.committedRAT[r]
	if p == 0 {
		// r still maps to the always-zero register: writing zero is a
		// no-op, anything else needs a real physical register.
		if v == 0 {
			return
		}
		p = c.allocReg()
		c.committedRAT[r] = p
		c.rat[r] = p
	}
	c.writeReg(p, v)
}

// SetPC redirects fetch (and the committed-order resume point) to pc,
// clearing any latched halt-fetch or icache stall. Legal only on a drained
// pipeline.
func (c *CPU) SetPC(pc int) {
	c.pc = pc
	c.commitPC = pc
	c.haltFetched = false
	c.fetchStall = 0
}

// DebugState summarizes the pipeline's head-of-ROB state for deadlock
// diagnostics.
func (c *CPU) DebugState() string {
	if c.robLen() == 0 {
		return fmt.Sprintf("cycle %d pc %d: ROB empty, frontend %d, rs %d", c.cycle, c.pc, c.feLen(), c.rsLen)
	}
	h := c.robLive()[0]
	extra := ""
	if h.IsTrace() {
		extra = fmt.Sprintf(" trace(res=%v liveInReady=%v)", h.TraceRes != nil, func() []bool {
			var out []bool
			for _, p := range h.traceLiveInPhys {
				out = append(out, c.regs[p].ready)
			}
			return out
		}())
	}
	return fmt.Sprintf("cycle %d pc %d: head seq=%d pc=%d op=%s issued=%v executed=%v%s (rob %d, rs %d, fe %d)",
		c.cycle, c.pc, h.Seq, h.PC, h.Inst.Op, h.Issued, h.Executed, extra, c.robLen(), c.rsLen, c.feLen())
}

// Run simulates until the halt instruction commits. It returns an error if
// the cycle budget is exhausted, which indicates a deadlock bug rather than
// a program property.
func (c *CPU) Run() error {
	return c.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: the simulation polls ctx
// every few thousand cycles and aborts with ctx's error once it is done.
func (c *CPU) RunCtx(ctx context.Context) error {
	return c.run(ctx, math.MaxUint64, false)
}

// RunCommitsCtx steps the pipeline until at least n more instructions have
// committed (fabric-executed ops count individually, exactly as in
// Stats.Committed), the halt commits, or ctx is cancelled. The stop check
// runs between cycles, so a wide commit may overshoot the quota by up to
// CommitWidth-1 instructions — deterministically, since the machine itself
// is deterministic. The sampled-simulation driver in internal/core uses it
// to delimit warmup and measurement windows.
func (c *CPU) RunCommitsCtx(ctx context.Context, n uint64) error {
	return c.run(ctx, c.stats.Committed+n, false)
}

// DrainCtx suppresses fetch and steps until every in-flight instruction has
// committed or squashed, leaving the speculative register map equal to the
// committed one. The drained machine's architectural state (ArchReg, ArchPC,
// memory) is then a precise resume point: the sampled-simulation driver
// hands it to the functional interpreter for fast-forwarding. Draining costs
// simulated cycles like any pipeline flush would.
func (c *CPU) DrainCtx(ctx context.Context) error {
	c.fetchSuppressed = true
	defer func() { c.fetchSuppressed = false }()
	return c.run(ctx, math.MaxUint64, true)
}

// run steps the pipeline until the halt commits, Stats.Committed reaches
// target, or — with drain — the ROB and front end are empty. Exhausting the
// cycle budget is an error: it indicates a deadlock bug rather than a
// program property. ctx is polled every 8192 cycles (well under a
// millisecond of host time), which keeps the check off the per-cycle hot
// path while letting a parallel sweep cancel in-flight simulations
// promptly.
func (c *CPU) run(ctx context.Context, target uint64, drain bool) error {
	budget := c.cfg.MaxCycles
	if budget == 0 {
		budget = 2_000_000_000
	}
	for !c.stats.HaltSeen && c.stats.Committed < target {
		if drain && c.robLen() == 0 && c.feLen() == 0 {
			return nil
		}
		if c.cycle >= budget {
			return fmt.Errorf("ooo: cycle budget %d exhausted at pc %d (deadlock?)", budget, c.pc)
		}
		if c.cycle&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("ooo: simulation cancelled at cycle %d: %w", c.cycle, err)
			}
		}
		c.step()
	}
	return nil
}

// step advances one cycle. Stages run back-to-front so same-cycle
// producer→consumer flow matches a real pipeline's latch behaviour.
func (c *CPU) step() {
	committedBefore := c.stats.Committed
	c.commit()
	if c.stats.HaltSeen {
		// The halt cycle is not counted in stats.Cycles (early return
		// before the increment below), so it is not classified either:
		// the stack stays equal to the cycle counter.
		return
	}
	c.classifyCycle(c.stats.Committed - committedBefore)
	c.writeback()
	c.issue()
	c.renameDispatch()
	c.fetch()
	c.cycle++
	c.stats.Cycles++
	if c.cpiSampler != nil && c.cycle&(cpiSamplePeriod-1) == 0 {
		c.cpiSampler(c.cycle)
	}
}

// classifyCycle charges the commit-slot cycle that commit() just consumed
// to exactly one cpistack cause (head-of-ROB interval analysis). It runs
// once per counted cycle, immediately after commit, so Σ buckets ==
// stats.Cycles by construction. Zero-commit precedence, most to least
// specific:
//
//  1. an active squash-recovery window (set at squash initiation, latest
//     squash wins, cleared by the first commit after it);
//  2. an open mapping session (CauseMapper);
//  3. empty ROB → front-end starvation (icache miss vs. generic fetch);
//  4. head is an evaluating trace invocation → config-wait during its
//     startup delay, fabric-eval after;
//  5. head is an issued load/store → memory;
//  6. the structural resource that blocked rename last cycle (rename runs
//     after classify, a deterministic one-cycle skew);
//  7. otherwise plain dependency/bandwidth stall (CauseExecDep) — this
//     also covers a head trace still waiting for its live-ins.
func (c *CPU) classifyCycle(commits uint64) {
	stall := c.stallCause
	c.stallCause = causeNone
	if commits > 0 {
		c.recoverCause = causeNone
		c.cpi.Buckets[cpistack.CauseBase]++
		return
	}
	if c.recoverCause != causeNone {
		c.cpi.Buckets[c.recoverCause]++
		return
	}
	if c.mapperActive {
		c.cpi.Buckets[cpistack.CauseMapper]++
		return
	}
	if c.robLen() == 0 {
		if c.cycle < c.fetchStall {
			c.cpi.Buckets[cpistack.CauseFrontendICache]++
		} else {
			c.cpi.Buckets[cpistack.CauseFrontendFetch]++
		}
		return
	}
	h := c.robLive()[0]
	switch {
	case h.IsTrace() && h.TraceRes != nil:
		if h.TraceRes.ConfigWait > 0 && c.cycle-h.evalStartAt <= uint64(h.TraceRes.ConfigWait) {
			c.cpi.Buckets[cpistack.CauseFabricConfigWait]++
		} else {
			c.cpi.Buckets[cpistack.CauseFabricEval]++
		}
	case !h.IsTrace() && h.Issued && !h.Executed && (h.Inst.Op.IsLoad() || h.Inst.Op.IsStore()):
		c.cpi.Buckets[cpistack.CauseMemory]++
	case stall != causeNone:
		c.cpi.Buckets[stall]++
	default:
		c.cpi.Buckets[cpistack.CauseExecDep]++
	}
}

// ---------------------------------------------------------------- fetch --

func (c *CPU) fetch() {
	if c.fetchSuppressed || c.haltFetched || c.cycle < c.fetchStall {
		return
	}
	// Front-end queue backpressure.
	if c.feLen() >= c.cfg.ROBSize {
		return
	}
	fetched := 0
	for fetched < c.cfg.FetchWidth {
		if !c.prog.Valid(c.pc) {
			return
		}
		// DynaSpAM: give the framework a chance to take over.
		if c.hooks.BeforeFetch != nil {
			tr, stall := c.hooks.BeforeFetch(c.pc)
			if stall {
				return // FIFO backpressure: retry next cycle
			}
			if tr != nil {
				c.fetchTrace(tr)
				return // trace injection ends the fetch group
			}
		}
		// Instruction cache timing: charge the line once per block.
		lat := c.hier.AccessInst(uint64(c.pc) * 4)
		// Next-line prefetch keeps sequential fetch streaming.
		c.hier.PrefetchInst(uint64(c.pc)*4 + 64)
		if lat > c.hier.L1I.Config().HitLatency {
			// Miss: bubble until the line arrives, then re-fetch.
			c.fetchStall = c.cycle + uint64(lat)
			return
		}
		in := c.prog.At(c.pc)
		e := c.newEntry()
		e.Seq = c.nextSeq()
		e.PC = c.pc
		e.Inst = in
		e.PhysDest, e.OldPhys = -1, -1
		e.PhysSrc1, e.PhysSrc2 = -1, -1
		e.LQIndex, e.SQIndex = -1, -1
		c.fePush(fetchSlot{entry: e, readyAt: c.cycle + uint64(c.cfg.FrontendDepth)})
		c.stats.Fetched++
		if c.hooks.OnFetch != nil {
			c.hooks.OnFetch(c.pc, e.Seq)
		}
		fetched++

		switch {
		case in.Op == isa.OpHalt:
			c.haltFetched = true
			return
		case in.Op == isa.OpJmp:
			e.PredTaken = true
			e.PredTarget = in.Target
			c.pc = in.Target
			if _, ok := c.bp.PredictTarget(uint64(e.PC)); !ok {
				c.bp.NoteBTBMiss()
			}
			// A taken control transfer ends the fetch group: the
			// front end fetches through at most one taken branch
			// per cycle.
			return
		case in.Op.IsCondBranch():
			e.HistAtPred = c.bp.History()
			taken := c.bp.PredictDirection(uint64(e.PC))
			e.PredTaken = taken
			c.bp.SpeculateHistory(taken)
			if taken {
				e.PredTarget = in.Target
				c.pc = in.Target
				if _, ok := c.bp.PredictTarget(uint64(e.PC)); !ok {
					c.bp.NoteBTBMiss()
				}
				return // taken branch ends the fetch group
			}
			e.PredTarget = e.PC + 1
			c.pc = e.PC + 1
		default:
			c.pc++
		}
	}
}

// fetchTrace injects a fat atomic trace invocation, checkpointing the global
// branch history and shifting in the trace's predicted directions so that
// lookahead past the invocation stays consistent.
func (c *CPU) fetchTrace(tr *TraceInject) {
	e := c.newEntry()
	e.Seq = c.nextSeq()
	e.PC = tr.StartPC
	e.Inst = isa.Inst{Op: isa.OpNop, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid}
	e.PhysDest, e.OldPhys = -1, -1
	e.PhysSrc1, e.PhysSrc2 = -1, -1
	e.LQIndex, e.SQIndex = -1, -1
	e.Trace = tr
	e.HistAtPred = c.bp.History()
	for _, d := range tr.PredDirs {
		c.bp.SpeculateHistory(d)
	}
	c.fePush(fetchSlot{entry: e, readyAt: c.cycle + uint64(c.cfg.FrontendDepth)})
	c.stats.Fetched++
	c.pc = tr.ExitPC
}

func (c *CPU) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// ------------------------------------------------------ rename/dispatch --

// renameDispatch renames and dispatches up to RenameWidth instructions from
// the front-end queue into the ROB, reservation stations and load/store
// queues.
func (c *CPU) renameDispatch() {
	n := 0
	for n < c.cfg.RenameWidth && c.feLen() > 0 {
		slot := c.feLive()[0]
		if slot.readyAt > c.cycle {
			return
		}
		e := slot.entry
		if c.hooks.DispatchGate != nil && !c.hooks.DispatchGate(e.PC, e.Seq, c.robLen() == 0) {
			return
		}
		if c.robLen() >= c.cfg.ROBSize {
			c.stallCause = cpistack.CauseStructROB
			return
		}
		if e.IsTrace() {
			if !c.renameTrace(e) {
				return
			}
		} else {
			if !c.renameInst(e) {
				return
			}
		}
		c.fePopFront()
		c.robPush(e)
		e.Dispatched = true
		e.DispatchedAt = c.cycle
		c.stats.Renamed++
		c.stats.Dispatched++
		n++
	}
}

// renameInst renames a normal instruction; false means a structural stall
// (no free phys reg, RS or LSQ full).
func (c *CPU) renameInst(e *ROBEntry) bool {
	in := &e.Inst
	needsRS := in.Op != isa.OpHalt && in.Op != isa.OpNop
	if needsRS && c.rsLen >= c.cfg.RSSize {
		c.stallCause = cpistack.CauseStructRS
		return false
	}
	if in.Op.IsLoad() && len(c.loads) >= c.cfg.LQSize {
		c.stallCause = cpistack.CauseStructLQ
		return false
	}
	if in.Op.IsStore() && len(c.strs) >= c.cfg.SQSize {
		c.stallCause = cpistack.CauseStructSQ
		return false
	}
	hasDest := in.Op.HasDest() && in.Dest != isa.RegZero
	if hasDest && len(c.freeList) == 0 {
		c.stallCause = cpistack.CauseStructPhysReg
		return false
	}
	srcs, nsrc := in.Sources()
	if nsrc >= 1 {
		e.PhysSrc1 = c.rat[srcs[0]]
		c.stats.RegReads++
		c.waitOn(e, e.PhysSrc1)
	}
	if nsrc >= 2 {
		e.PhysSrc2 = c.rat[srcs[1]]
		c.stats.RegReads++
		c.waitOn(e, e.PhysSrc2)
	}
	if hasDest {
		p := c.allocReg()
		e.PhysDest = p
		e.OldPhys = c.rat[in.Dest]
		c.rat[in.Dest] = p
	}
	if needsRS {
		c.enterRS(e)
	} else {
		e.Issued = true
		e.Executed = true // halt/nop complete immediately
	}
	if in.Op.IsLoad() {
		e.LQIndex = len(c.loads)
		c.loads = append(c.loads, e)
	}
	if in.Op.IsStore() {
		e.SQIndex = len(c.strs)
		c.strs = append(c.strs, e)
		// Register the in-flight store with the store-sets unit so that
		// predicted-dependent loads wait for it until it executes.
		c.mdp.CheckStore(uint64(e.PC), int(e.Seq))
	}
	return true
}

// renameTrace renames a trace invocation's live-ins and live-outs.
func (c *CPU) renameTrace(e *ROBEntry) bool {
	tr := e.Trace
	need := 0
	for _, r := range tr.LiveOuts {
		if r != isa.RegZero {
			need++
		}
	}
	if need > len(c.freeList) {
		c.stallCause = cpistack.CauseStructPhysReg
		return false
	}
	e.traceLiveInPhys = resizeInts(e.traceLiveInPhys, len(tr.LiveIns))
	for i, r := range tr.LiveIns {
		e.traceLiveInPhys[i] = c.rat[r]
		c.stats.RegReads++
		c.waitOn(e, e.traceLiveInPhys[i])
	}
	e.traceLiveOutPhys = resizeInts(e.traceLiveOutPhys, len(tr.LiveOuts))
	e.traceOldPhys = resizeInts(e.traceOldPhys, len(tr.LiveOuts))
	for i, r := range tr.LiveOuts {
		if r == isa.RegZero {
			e.traceLiveOutPhys[i] = -1
			e.traceOldPhys[i] = -1
			continue
		}
		p := c.allocReg()
		e.traceLiveOutPhys[i] = p
		e.traceOldPhys[i] = c.rat[r]
		c.rat[r] = p
	}
	c.stats.TraceLiveInMoves += uint64(len(tr.LiveIns))
	c.stats.TraceLiveOutMoves += uint64(need)
	c.enterRS(e) // waits for live-ins like a normal RS entry
	return true
}

// enterRS places a renamed entry in the reservation stations. It is the
// youngest entry, so appending to readyQ keeps Seq order.
func (c *CPU) enterRS(e *ROBEntry) {
	c.rsLen++
	if e.waiting == 0 {
		c.readyQ = append(c.readyQ, e)
	}
}

// ---------------------------------------------------------------- issue --

// loadMayIssue enforces memory-ordering rules for issuing e, a load whose
// address operand is ready.
func (c *CPU) loadMayIssue(e *ROBEntry) bool {
	// The address operand is known ready here; compute the address for
	// disambiguation (idempotent).
	addr := uint64(int64(c.regs[e.PhysSrc1].value) + e.Inst.Imm)
	for _, s := range c.strs {
		if s.Seq >= e.Seq {
			break
		}
		if !s.AddrValid {
			// Older store with unknown address.
			if !c.cfg.MemSpeculation {
				return false
			}
			// Store-sets: if the predictor says this load depends on
			// an in-flight store, wait until no predicted store is
			// outstanding.
			if tag := c.mdp.CheckLoad(uint64(e.PC)); tag != memdep.InvalidTag {
				return false
			}
			continue
		}
		if overlaps(s.Addr, addr) && !s.Executed {
			// Known-aliasing store whose data is not ready yet.
			return false
		}
	}
	// Older trace invocations that have not evaluated yet have unknown
	// store sets; conservative mode waits for them, speculative mode
	// waits only when the store-sets unit links this load to one of the
	// invocation's stores.
	for _, o := range c.traceScan() {
		if o.Seq >= e.Seq {
			break
		}
		if !o.IsTrace() || o.TraceRes != nil {
			continue
		}
		if !c.cfg.MemSpeculation {
			return false
		}
		for _, spc := range o.Trace.StorePCs {
			if c.mdp.SameSet(uint64(e.PC), uint64(spc)) {
				return false
			}
		}
	}
	e.Addr = addr
	e.AddrValid = true
	return true
}

// overlaps reports whether two 8-byte accesses intersect.
func overlaps(a, b uint64) bool {
	return a < b+8 && b < a+8
}

// traceReady decides whether a trace invocation whose live-ins are all ready
// can begin evaluation.
func (c *CPU) traceReady(e *ROBEntry) bool {
	if e.Trace.Conservative {
		// Wait for every older store (host or trace) to be fully known.
		for _, s := range c.strs {
			if s.Seq < e.Seq && !s.Executed {
				return false
			}
		}
	} else {
		// Speculative: wait only for older unexecuted host stores the
		// store-sets unit links to one of the invocation's loads.
		for _, s := range c.strs {
			if s.Seq >= e.Seq {
				break
			}
			if s.Executed {
				continue
			}
			for _, lpc := range e.Trace.LoadPCs {
				if c.mdp.SameSet(uint64(s.PC), uint64(lpc)) {
					return false
				}
			}
		}
	}
	// Older trace invocations must have evaluated: their store buffers
	// are this invocation's forwarding source (in-order wave evaluation
	// through the configuration FIFOs).
	for _, o := range c.robLive() {
		if o.Seq >= e.Seq {
			break
		}
		if o.IsTrace() && o.TraceRes == nil {
			return false
		}
	}
	return true
}

// issue selects up to IssueWidth ready instructions onto free functional
// units, oldest-first (or per the SelectOverride hook), and schedules their
// completions. It walks only the ready queue: entries whose operands are
// ready, in dispatch order.
func (c *CPU) issue() {
	if c.hooks.BeginIssue != nil {
		c.hooks.BeginIssue()
	}
	if len(c.readyQ) == 0 {
		return
	}
	issued := 0
	// Gather ready entries per FU pool once, into CPU-owned scratch. The
	// wrapper buffer is filled completely before any pointers are taken:
	// appends may move rsWrapBuf's backing array, so &rsWrapBuf[i] is only
	// stable once the candidate set is final. The pointers are transient —
	// valid for this issue stage only (see Hooks.SelectOverride).
	c.rsWrapBuf = c.rsWrapBuf[:0]
	c.traceScratch = c.traceScratch[:0]
	for _, e := range c.readyQ {
		switch {
		case e.IsTrace():
			if c.traceReady(e) {
				c.traceScratch = append(c.traceScratch, e)
			}
		case e.Inst.Op.IsLoad() && !c.loadMayIssue(e):
		default:
			c.rsWrapBuf = append(c.rsWrapBuf, RSEntry{ROB: e})
		}
	}
	for fu := range c.readyScratch {
		c.readyScratch[fu] = c.readyScratch[fu][:0]
	}
	for i := range c.rsWrapBuf {
		fu := c.rsWrapBuf[i].ROB.Inst.Op.FU()
		c.readyScratch[fu] = append(c.readyScratch[fu], &c.rsWrapBuf[i])
	}
	// Trace invocations issue on a virtual fabric port, not an OOO FU.
	for _, e := range c.traceScratch {
		c.issueTrace(e)
	}
	for fu := isa.FUType(0); fu < isa.NumFUTypes; fu++ {
		cand := c.readyScratch[fu]
		for unit := 0; unit < c.cfg.FUCounts[fu] && issued < c.cfg.IssueWidth; unit++ {
			if c.fuFree[fu][unit] > c.cycle {
				continue // unit busy (non-pipelined op)
			}
			if len(cand) == 0 {
				break
			}
			idx := 0 // oldest-first: cand is in RS (dispatch) order
			if c.hooks.SelectOverride != nil {
				idx = c.hooks.SelectOverride(fu, unit, cand)
				if idx < 0 || idx >= len(cand) {
					continue
				}
			}
			r := cand[idx]
			// Order-preserving removal: SelectOverride tie-breaks on
			// candidate order, so a swap-with-tail would change
			// architectural results. Zero the vacated tail slot.
			copy(cand[idx:], cand[idx+1:])
			cand[len(cand)-1] = nil
			cand = cand[:len(cand)-1]
			c.issueOne(r, fu, unit)
			issued++
		}
		c.readyScratch[fu] = cand
	}
	if n := issued + len(c.traceScratch); n > 0 {
		c.rsLen -= n
		c.readyQ = dropIssued(c.readyQ)
	}
}

// issueOne executes r's instruction functionally and schedules its
// writeback. r points into the issue stage's scratch and is reused next
// cycle; hooks must not retain it.
func (c *CPU) issueOne(r *RSEntry, fu isa.FUType, unit int) {
	e := r.ROB
	e.Issued = true
	c.stats.Issued++
	if c.hooks.OnIssue != nil {
		c.hooks.OnIssue(r, fu, unit)
	}
	in := &e.Inst
	lat := in.Op.Latency()
	var kind compKind
	switch {
	case in.Op.IsCondBranch() || in.Op == isa.OpJmp:
		kind = compBranch
		if in.Op == isa.OpJmp {
			e.Taken = true
			e.Target = in.Target
		} else {
			a := int64(c.regs[e.PhysSrc1].value)
			b := int64(c.regs[e.PhysSrc2].value)
			e.Taken = isa.BranchTaken(in.Op, a, b)
			if e.Taken {
				e.Target = in.Target
			} else {
				e.Target = e.PC + 1
			}
		}
	case in.Op.IsLoad():
		kind = compLoad
		c.stats.LoadsExecuted++
		val, fwd, ok := c.forwardFromStores(e.Seq, e.Addr)
		if ok {
			e.StoreVal = val
			if fwd {
				c.stats.StoreForwards++
				lat += 1
			} else {
				lat += c.hier.AccessData(e.Addr, false)
			}
		} else {
			// Unreachable if loadMayIssue gated correctly; read
			// memory as a safe default.
			e.StoreVal = c.mem.Read64(e.Addr)
			lat += c.hier.AccessData(e.Addr, false)
		}
	case in.Op.IsStore():
		kind = compStore
		c.stats.StoresExecuted++
		e.Addr = uint64(int64(c.regs[e.PhysSrc1].value) + in.Imm)
		e.AddrValid = true
		e.StoreVal = c.regs[e.PhysSrc2].value
		// Charge the cache fill now (write-allocate); commit drains the
		// store buffer without stalling.
		c.hier.AccessData(e.Addr, true)
	default:
		kind = compALU
		// Non-pipelined long-latency units occupy the unit.
		if in.Op.Class() == isa.ClassIntDiv || in.Op.Class() == isa.ClassFPDiv {
			c.fuFree[fu][unit] = c.cycle + uint64(lat)
		}
	}
	c.schedule(c.cycle+uint64(lat), completion{entry: e, kind: kind})
}

// forwardFromStores finds the youngest older store (host SQ entry or trace
// store buffer) covering addr. Returns its value, whether it was a forward
// (vs memory read), and ok.
func (c *CPU) forwardFromStores(seq uint64, addr uint64) (val uint64, forwarded, ok bool) {
	var best *ROBEntry
	var bestTraceVal uint64
	bestIsTrace := false
	for _, s := range c.strs {
		if s.Seq >= seq {
			break
		}
		if s.AddrValid && s.Executed && s.Addr == addr {
			if best == nil || s.Seq > best.Seq {
				best = s
				bestIsTrace = false
			}
		}
	}
	for _, o := range c.traceScan() {
		if o.Seq >= seq {
			break
		}
		if o.IsTrace() && o.TraceRes != nil {
			for i := range o.TraceRes.Stores {
				st := &o.TraceRes.Stores[i]
				if st.Addr == addr {
					if best == nil || o.Seq >= best.Seq {
						best = o
						bestTraceVal = st.Value
						bestIsTrace = true
					}
				}
			}
		}
	}
	if best != nil {
		if bestIsTrace {
			return bestTraceVal, true, true
		}
		return best.StoreVal, true, true
	}
	return c.mem.Read64(addr), false, true
}

// issueTrace begins fabric evaluation of a trace invocation.
func (c *CPU) issueTrace(e *ROBEntry) {
	e.Issued = true
	c.stats.Issued++
	c.stats.TraceInvocations++
	tr := e.Trace
	// LiveIns/Arrivals/ReadMem are CPU-owned scratch, valid only during
	// Evaluate (the TraceInput contract).
	if cap(c.liveInBuf) < len(tr.LiveIns) {
		c.liveInBuf = make([]uint64, len(tr.LiveIns))
		c.arrivalBuf = make([]int64, len(tr.LiveIns))
	}
	c.liveInBuf = c.liveInBuf[:len(tr.LiveIns)]
	c.arrivalBuf = c.arrivalBuf[:len(tr.LiveIns)]
	c.readMemSeq = e.Seq
	e.evalStartAt = c.cycle
	in := TraceInput{
		LiveIns:  c.liveInBuf,
		Arrivals: c.arrivalBuf,
		Cycle:    c.cycle,
		ReadMem:  c.readMemFn,
	}
	for i, p := range e.traceLiveInPhys {
		in.LiveIns[i] = c.regs[p].value
		// A live-in enters its FIFO when its value is produced, but no
		// earlier than the invocation's dispatch (FIFO allocation).
		at := c.regs[p].readyAt
		if at < e.DispatchedAt {
			at = e.DispatchedAt
		}
		in.Arrivals[i] = int64(at)
	}
	res := tr.Evaluate(in)
	e.TraceRes = &res
	c.stats.TraceFabricLoads += uint64(len(res.Loads))
	c.stats.TraceFabricStores += uint64(len(res.Stores))
	if res.Latency < 1 {
		res.Latency = 1
	}
	// Schedule per-live-out wakeups (pipelined forwarding) and the final
	// completion.
	if res.ExitMatches && !res.MemViolation {
		for i := range e.traceLiveOutPhys {
			delay := res.Latency
			if res.LiveOutDelay != nil && i < len(res.LiveOutDelay) {
				delay = res.LiveOutDelay[i]
				if delay < 1 {
					delay = 1
				}
			}
			c.schedule(c.cycle+uint64(delay), completion{entry: e, kind: compTraceLiveOut, liveOutIdx: i})
		}
	}
	c.schedule(c.cycle+uint64(res.Latency), completion{entry: e, kind: compTraceDone})
}

func (c *CPU) schedule(at uint64, comp completion) {
	if at <= c.cycle {
		at = c.cycle + 1
	}
	comp.entry.pending++
	c.wheel.schedule(c.cycle, at, comp)
}

// ------------------------------------------------------------ writeback --

func (c *CPU) writeback() {
	comps := c.wheel.take(c.cycle)
	if len(comps) == 0 {
		return
	}
	// Squashes triggered mid-list do not stop processing: the active
	// re-check skips completions of flushed entries, while surviving
	// entries' completions must still land this cycle.
	for _, comp := range comps {
		e := comp.entry
		e.pending--
		if !e.active {
			continue // squashed (or committed) while in flight
		}
		// A trace-done handler can squash e itself, recycling the entry
		// mid-iteration; capture the identity the hook reports first.
		pc, seq := e.PC, e.Seq
		switch comp.kind {
		case compALU:
			c.writebackALU(e)
		case compBranch:
			c.writebackBranch(e)
		case compLoad:
			c.writeResult(e, e.StoreVal)
			e.Executed = true
		case compStore:
			e.Executed = true
			c.mdpRegisterStore(e)
			c.checkViolation(e)
		case compTraceDone:
			c.writebackTraceDone(e)
		case compTraceLiveOut:
			c.writebackTraceLiveOut(e, comp.liveOutIdx)
		}
		if c.hooks.OnWriteback != nil && comp.kind != compTraceLiveOut {
			c.hooks.OnWriteback(pc, seq)
		}
	}
	// The drained slice aliases wheel storage reused on later cycles; zero
	// it so processed events do not pin their entries.
	for i := range comps {
		comps[i] = completion{}
	}
}

func (c *CPU) writebackALU(e *ROBEntry) {
	in := &e.Inst
	var result uint64
	switch {
	case in.Op == isa.OpFSlt:
		a := math.Float64frombits(c.regs[e.PhysSrc1].value)
		b := math.Float64frombits(c.regs[e.PhysSrc2].value)
		if a < b {
			result = 1
		}
	case in.Op == isa.OpItoF:
		result = math.Float64bits(float64(int64(c.regs[e.PhysSrc1].value)))
	case in.Op == isa.OpFtoI:
		result = uint64(int64(math.Float64frombits(c.regs[e.PhysSrc1].value)))
	case in.Op.Class() == isa.ClassFPALU || in.Op.Class() == isa.ClassFPMul || in.Op.Class() == isa.ClassFPDiv:
		var a, b float64
		if e.PhysSrc1 >= 0 {
			a = math.Float64frombits(c.regs[e.PhysSrc1].value)
		}
		if e.PhysSrc2 >= 0 {
			b = math.Float64frombits(c.regs[e.PhysSrc2].value)
		}
		result = math.Float64bits(isa.FPOp(in.Op, a, b, in.FImm))
	default:
		var a, b int64
		if e.PhysSrc1 >= 0 {
			a = int64(c.regs[e.PhysSrc1].value)
		}
		if e.PhysSrc2 >= 0 {
			b = int64(c.regs[e.PhysSrc2].value)
		}
		result = uint64(isa.IntOp(in.Op, a, b, in.Imm))
	}
	c.writeResult(e, result)
	e.Executed = true
}

// writeResult writes e's destination physical register and broadcasts.
func (c *CPU) writeResult(e *ROBEntry, v uint64) {
	if e.PhysDest >= 0 {
		c.writeReg(e.PhysDest, v)
		c.stats.RegWrites++
		c.stats.Broadcasts++
	}
}

func (c *CPU) writebackBranch(e *ROBEntry) {
	e.Executed = true
	c.stats.BranchResolved++
	mispredicted := e.Taken != e.PredTaken || (e.Taken && e.Target != e.PredTarget)
	if e.Inst.Op.IsCondBranch() {
		c.bp.Update(uint64(e.PC), e.HistAtPred, e.Taken, e.Target, mispredicted)
	} else if e.Taken {
		c.bp.UpdateBTB(uint64(e.PC), e.Target)
	}
	if mispredicted {
		c.stats.BranchMispredicts++
		// Restore history to the point of prediction, then shift in
		// the actual outcome.
		c.bp.Restore(e.HistAtPred)
		c.bp.SpeculateHistory(e.Taken)
		c.recoverCause = cpistack.CauseSquashBranch
		c.squashAfter(e.Seq, e.Target)
	}
}

// mdpRegisterStore tells the store-sets predictor the store has resolved:
// once address and data are known, dependent loads use ordinary
// disambiguation instead of the predictor.
func (c *CPU) mdpRegisterStore(e *ROBEntry) {
	c.mdp.StoreRetired(uint64(e.PC), int(e.Seq))
}

// checkViolation scans for younger loads (host LQ or trace invocations) that
// executed before store e and read a stale value. The squash must start at
// the oldest violating consumer: everything from the consumer onward
// re-executes, while instructions between the store and the consumer keep
// their results. Returns true if a squash occurred.
func (c *CPU) checkViolation(e *ROBEntry) bool {
	var victim *ROBEntry // oldest violating consumer
	victimPC := 0
	for _, l := range c.loads {
		// A load has read its value at issue time, so the violation
		// window opens at issue, not writeback.
		if l.Seq <= e.Seq || !l.Issued || !l.AddrValid {
			continue
		}
		if !overlaps(e.Addr, l.Addr) {
			continue
		}
		// Is there an intervening store that re-covers the load?
		if c.interveningStore(e.Seq, l.Seq, l.Addr) {
			continue
		}
		if l.StoreVal == e.StoreVal && e.Addr == l.Addr {
			continue // read the right value by luck; no squash
		}
		if victim == nil || l.Seq < victim.Seq {
			victim, victimPC = l, l.PC
		}
		c.mdp.Violation(uint64(l.PC), uint64(e.PC))
	}
	// Trace invocations: their recorded loads are snooped the same way.
	for _, o := range c.traceScan() {
		if o.Seq <= e.Seq || !o.IsTrace() || o.TraceRes == nil {
			continue
		}
		for i := range o.TraceRes.Loads {
			l := &o.TraceRes.Loads[i]
			if !overlaps(e.Addr, l.Addr) || c.interveningStore(e.Seq, o.Seq, l.Addr) {
				continue
			}
			if e.Addr == l.Addr && l.Value == e.StoreVal {
				continue
			}
			c.mdp.Violation(uint64(l.PC), uint64(e.PC))
			if victim == nil || o.Seq < victim.Seq {
				victim, victimPC = o, o.Trace.StartPC
			}
		}
	}
	if victim == nil {
		return false
	}
	c.stats.MemViolations++
	c.recoverCause = cpistack.CauseSquashMemOrder
	if victim.IsTrace() {
		c.stats.TraceSquashes++
		c.recoverCause = cpistack.CauseFabricSquashMemOrder
		if victim.Trace.OnSquash != nil {
			victim.Trace.OnSquash(SquashMemOrder)
		}
	}
	c.squashFrom(victim.Seq, victimPC)
	return true
}

// traceStoreViolations runs when a trace invocation's stores become known:
// younger host loads that issued before the evaluation may have read stale
// values. Returns true if a squash occurred.
func (c *CPU) traceStoreViolations(e *ROBEntry) bool {
	res := e.TraceRes
	var victim *ROBEntry
	var victimStPC int
	for i := range res.Stores {
		st := &res.Stores[i]
		for _, l := range c.loads {
			if l.Seq <= e.Seq || !l.Issued || !l.AddrValid {
				continue
			}
			if !overlaps(st.Addr, l.Addr) || c.interveningStore(e.Seq, l.Seq, l.Addr) {
				continue
			}
			if st.Addr == l.Addr && l.StoreVal == st.Value {
				continue
			}
			c.mdp.Violation(uint64(l.PC), uint64(st.PC))
			if victim == nil || l.Seq < victim.Seq {
				victim, victimStPC = l, st.PC
			}
		}
	}
	_ = victimStPC
	if victim == nil {
		return false
	}
	c.stats.MemViolations++
	c.recoverCause = cpistack.CauseSquashMemOrder
	c.squashFrom(victim.Seq, victim.PC)
	return true
}

// interveningStore reports whether a store with sequence in (after, before)
// covers addr, which would make an older store's value irrelevant.
func (c *CPU) interveningStore(after, before uint64, addr uint64) bool {
	for _, s := range c.strs {
		if s.Seq > after && s.Seq < before && s.AddrValid && s.Addr == addr {
			return true
		}
	}
	return false
}

// writebackTraceDone finalizes a trace invocation. Returns true if it
// squashed the pipeline.
func (c *CPU) writebackTraceDone(e *ROBEntry) bool {
	res := e.TraceRes
	if !res.ExitMatches || res.MemViolation {
		kind := SquashBranchExit
		c.recoverCause = cpistack.CauseFabricSquashBranchExit
		if res.MemViolation {
			kind = SquashMemOrder
			c.recoverCause = cpistack.CauseFabricSquashMemOrder
			c.stats.MemViolations++
		}
		c.stats.TraceSquashes++
		if e.Trace.OnSquash != nil {
			e.Trace.OnSquash(kind)
		}
		// Rewind the global history to the injection point; the host
		// re-predicts the region's branches as it re-executes it.
		c.bp.Restore(e.HistAtPred)
		// Train the direction predictor with the outcomes the fabric
		// observed, so the next walk follows the real path.
		hist := e.HistAtPred
		for _, br := range res.Branches {
			if c.prog.At(br.PC).Op.IsCondBranch() {
				target := br.PC + 1
				if br.Taken {
					target = c.prog.At(br.PC).Target
				}
				c.bp.Update(uint64(br.PC), hist, br.Taken, target, false)
				hist = hist<<1 | histBit(br.Taken)
			}
		}
		c.squashFrom(e.Seq, e.Trace.StartPC)
		return true
	}
	// The invocation itself is complete; a violation below squashes only
	// younger consumers, so mark completion first.
	e.Executed = true
	if e.Trace.OnComplete != nil {
		e.Trace.OnComplete()
	}
	// The invocation's stores are now architectural candidates: snoop
	// younger host loads that issued before the evaluation.
	return c.traceStoreViolations(e)
}

func (c *CPU) writebackTraceLiveOut(e *ROBEntry, i int) {
	if e.TraceRes == nil || !e.TraceRes.ExitMatches {
		return
	}
	p := e.traceLiveOutPhys[i]
	if p < 0 {
		return
	}
	if i < len(e.TraceRes.LiveOuts) {
		c.writeReg(p, e.TraceRes.LiveOuts[i])
		c.stats.RegWrites++
		c.stats.Broadcasts++
	}
}

// ----------------------------------------------------------------- squash --

// squashAfter flushes every instruction strictly younger than seq and
// redirects fetch to pc.
func (c *CPU) squashAfter(seq uint64, pc int) { c.squashBoundary(seq, false, pc) }

// squashFrom flushes seq itself and everything younger, redirecting to pc.
func (c *CPU) squashFrom(seq uint64, pc int) { c.squashBoundary(seq, true, pc) }

func (c *CPU) squashBoundary(seq uint64, inclusive bool, pc int) {
	keep := func(s uint64) bool {
		if inclusive {
			return s < seq
		}
		return s <= seq
	}
	// Flush front end entirely, notifying trace injections that never
	// reached the ROB. Front-end entries have no scheduled events and sit
	// in no other structure, so they recycle immediately.
	for i := c.feHead; i < len(c.feBuf); i++ {
		e := c.feBuf[i].entry
		if e.IsTrace() && e.Trace.OnSquash != nil {
			e.Trace.OnSquash(SquashExternal)
		}
		c.feBuf[i] = fetchSlot{}
		c.freeEntry(e)
	}
	c.feBuf = c.feBuf[:0]
	c.feHead = 0
	c.haltFetched = false
	c.fetchStall = 0

	// Trim ROB in place: survivors compact to the front of the backing
	// array (the write index never catches up with the read index), and
	// flushed entries park in flushScratch until their events are trimmed.
	c.flushScratch = c.flushScratch[:0]
	k := 0
	for _, e := range c.robLive() {
		if keep(e.Seq) {
			c.robBuf[k] = e
			k++
			continue
		}
		c.stats.Squashed++
		e.active = false
		if e.IsTrace() {
			// The initiator already notified the boundary entry
			// itself; every other squashed invocation is external.
			if e.Trace.OnSquash != nil && !(inclusive && e.Seq == seq) {
				e.Trace.OnSquash(SquashExternal)
			}
			c.robTraces--
			for _, p := range e.traceLiveOutPhys {
				if p >= 0 {
					c.freeList = append(c.freeList, p)
				}
			}
		} else if e.PhysDest >= 0 {
			c.freeList = append(c.freeList, e.PhysDest)
		}
		c.flushScratch = append(c.flushScratch, e)
	}
	clearEntryTail(c.robBuf, k)
	c.robBuf = c.robBuf[:k]
	c.robHead = 0

	// Rebuild the RS count, ready queue, LQ and SQ from surviving entries,
	// zeroing vacated tails. Survivors' wait counts stay exact: their
	// producers are older, so they survived too.
	oldReady, oldLoads, oldStrs := len(c.readyQ), len(c.loads), len(c.strs)
	c.rsLen = 0
	c.readyQ = c.readyQ[:0]
	c.loads = c.loads[:0]
	c.strs = c.strs[:0]
	for _, e := range c.robLive() {
		if !e.Issued {
			c.rsLen++
			if e.waiting == 0 {
				c.readyQ = append(c.readyQ, e)
			}
		}
		if e.IsTrace() {
			continue
		}
		if e.Inst.Op.IsLoad() {
			c.loads = append(c.loads, e)
		}
		if e.Inst.Op.IsStore() {
			c.strs = append(c.strs, e)
		}
	}
	clearEntryTail(c.readyQ[:oldReady], len(c.readyQ))
	clearEntryTail(c.loads[:oldLoads], len(c.loads))
	clearEntryTail(c.strs[:oldStrs], len(c.strs))

	// Drop completion events of squashed entries (the active re-check in
	// writeback also guards, but trimming keeps the wheel small and lets
	// flushed entries recycle). Flushed entries were just marked inactive,
	// so `!active` is exactly the keep(Seq) predicate here — it also drops
	// events of already-committed entries, which writeback would skip
	// anyway.
	c.wheel.filter(func(ev completion) bool {
		if ev.entry.active {
			return false
		}
		ev.entry.pending--
		return true
	})

	// Events trimmed: release the flushed entries to the pool.
	for i, e := range c.flushScratch {
		c.freeEntry(e)
		c.flushScratch[i] = nil
	}
	c.flushScratch = c.flushScratch[:0]

	// Rebuild the speculative RAT: committed map + surviving renames.
	copy(c.rat, c.committedRAT)
	for _, e := range c.robLive() {
		if e.IsTrace() {
			for i, r := range e.Trace.LiveOuts {
				if e.traceLiveOutPhys[i] >= 0 {
					c.rat[r] = e.traceLiveOutPhys[i]
				}
			}
			continue
		}
		if e.PhysDest >= 0 {
			c.rat[e.Inst.Dest] = e.PhysDest
		}
	}

	// Store-sets: drop in-flight registrations of squashed stores, then
	// re-register surviving unexecuted stores.
	c.mdp.Flush()
	for _, s := range c.strs {
		if !s.Executed {
			c.mdp.CheckStore(uint64(s.PC), int(s.Seq))
		}
	}

	c.pc = pc
	if c.hooks.OnSquash != nil {
		c.hooks.OnSquash(seq)
	}
}

// ---------------------------------------------------------------- commit --

func (c *CPU) commit() {
	n := 0
	for n < c.cfg.CommitWidth && c.robLen() > 0 {
		e := c.robLive()[0]
		if !e.Executed && !(e.IsTrace() && e.TraceRes != nil && e.TraceRes.ExitMatches && !e.TraceRes.MemViolation) {
			return
		}
		if e.IsTrace() {
			if !e.Executed {
				return
			}
			c.commitTrace(e)
		} else {
			c.commitInst(e)
		}
		c.robPopFront()
		c.freeEntry(e)
		n++
		if c.stats.HaltSeen {
			return
		}
	}
}

func (c *CPU) commitInst(e *ROBEntry) {
	in := &e.Inst
	c.stats.Committed++
	if in.Op == isa.OpHalt {
		c.stats.HaltSeen = true
		c.commitPC = e.PC
		return
	}
	if in.Op.IsBranch() && e.Taken {
		c.commitPC = e.Target
	} else {
		c.commitPC = e.PC + 1
	}
	if e.PhysDest >= 0 {
		old := c.committedRAT[in.Dest]
		c.committedRAT[in.Dest] = e.PhysDest
		if old != 0 {
			c.freeList = append(c.freeList, old)
		}
	}
	if in.Op.IsStore() {
		c.mem.Write64(e.Addr, e.StoreVal)
		c.strs = removeEntry(c.strs, e)
	}
	if in.Op.IsLoad() {
		c.loads = removeEntry(c.loads, e)
	}
	if in.Op.IsBranch() && c.hooks.OnCommitBranch != nil {
		c.hooks.OnCommitBranch(e.PC, e.Taken)
	}
	if c.hooks.OnCommit != nil {
		c.hooks.OnCommit(e.PC, e.Seq, in.Op)
	}
}

func (c *CPU) commitTrace(e *ROBEntry) {
	res := e.TraceRes
	c.stats.Committed += uint64(res.Ops)
	c.stats.TraceCommittedOps += uint64(res.Ops)
	c.commitPC = e.Trace.ExitPC
	for i := range res.Stores {
		st := &res.Stores[i]
		c.mem.Write64(st.Addr, st.Value)
	}
	for i, r := range e.Trace.LiveOuts {
		p := e.traceLiveOutPhys[i]
		if p < 0 {
			continue
		}
		old := c.committedRAT[r]
		c.committedRAT[r] = p
		if old != 0 {
			c.freeList = append(c.freeList, old)
		}
	}
	if e.Trace.OnCommit != nil {
		e.Trace.OnCommit(res)
	}
	if c.hooks.OnCommit != nil {
		c.hooks.OnCommit(e.PC, e.Seq, isa.OpNop)
	}
}

func histBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// removeEntry deletes e from list preserving order and zeroes the vacated
// tail slot so the backing array does not retain a stale *ROBEntry.
func removeEntry(list []*ROBEntry, e *ROBEntry) []*ROBEntry {
	for i, x := range list {
		if x == e {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}
