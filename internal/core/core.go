// Package core is the DynaSpAM framework (§3): it couples the host
// out-of-order pipeline with trace detection (T-Cache), the issue-coupled
// resource-aware mapper, the configuration cache, and one or more spatial
// fabrics, orchestrating the three phases of trace acceleration — detection,
// mapping, and offloading.
//
// A System is built over a program with a Params bundle selecting the run
// mode: plain baseline, mapping-only (measures mapping overhead), or full
// acceleration with or without memory speculation. Run simulates to
// completion; the accessors expose everything the paper's tables and
// figures need.
package core

import (
	"context"
	"fmt"

	"dynaspam/internal/cfgcache"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
	"dynaspam/internal/mapper"
	"dynaspam/internal/mem"
	"dynaspam/internal/ooo"
	"dynaspam/internal/probe"
	"dynaspam/internal/program"
	"dynaspam/internal/tcache"
)

// Mode selects how much of DynaSpAM is enabled.
type Mode int

const (
	// ModeBaseline is the plain host OOO pipeline.
	ModeBaseline Mode = iota
	// ModeMappingOnly detects and maps hot traces (incurring mapping
	// overhead) but never offloads them.
	ModeMappingOnly
	// ModeAccelNoSpec maps and offloads traces while conservatively
	// preserving all load-store and store-store orderings on the fabric.
	ModeAccelNoSpec
	// ModeAccel is full DynaSpAM: mapping, offloading, and store-sets
	// memory speculation.
	ModeAccel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeMappingOnly:
		return "mapping"
	case ModeAccelNoSpec:
		return "accel-nospec"
	case ModeAccel:
		return "accel-spec"
	}
	return "unknown"
}

// Offloads reports whether the mode executes traces on the fabric.
func (m Mode) Offloads() bool { return m == ModeAccel || m == ModeAccelNoSpec }

// Params configures a System.
type Params struct {
	Mode Mode
	// TraceLen caps the trace body length in instructions (the paper
	// sweeps 16–40 and settles on 32).
	TraceLen int
	// NumFabrics is the number of physical fabrics managed with LRU
	// reconfiguration (Table 5 models 1, 2, and 4).
	NumFabrics int
	// ReconfigPenalty is the cycle cost to load a configuration.
	ReconfigPenalty int

	// Sim selects the simulation fidelity policy (full detail, pure
	// fast-forward, or SMARTS-style sampled). The zero value is full
	// detail, which is bit-identical to the pre-policy simulator. The
	// struct is pure scalars so Params keeps satisfying the jobs memo
	// cache's %#v-key contract — cells simulated at different fidelities
	// can never alias one cache entry.
	Sim SimPolicy

	OOO      ooo.Config
	Geometry fabric.Geometry
	TCache   tcache.Config
	CfgCache cfgcache.Config
}

// DefaultParams returns the evaluation configuration of Table 4 in full
// acceleration mode.
func DefaultParams() Params {
	return Params{
		Mode:            ModeAccel,
		TraceLen:        32,
		NumFabrics:      1,
		ReconfigPenalty: 4,
		OOO:             ooo.DefaultConfig(),
		Geometry:        fabric.DefaultGeometry(),
		TCache:          tcache.DefaultConfig(),
		CfgCache:        cfgcache.DefaultConfig(),
	}
}

// Stats aggregates framework-level counters on top of the pipeline's own.
type Stats struct {
	TracesDetected  uint64 // T-Cache hot flips
	MappingSessions uint64
	TracesMapped    uint64 // configurations produced
	MappingFailed   uint64
	MappingAborted  uint64
	Offloads        uint64 // invocations injected
	OffloadDenied   uint64 // ready but FIFO-full or blocked-once
	TraceCommits    uint64
	TraceSquashes   uint64
	BranchExits     uint64
	MemOrderKills   uint64
	ExternalKills   uint64
	MappedCommits   uint64 // instructions committed during mapping sessions
	TracesDisabled  uint64 // configurations dropped for chronic exits

	// Invocation timing aggregates (diagnostics).
	InvocLatencySum uint64
	InvocCount      uint64
	InvocIISum      uint64
	InvocIICount    uint64
}

// System is one simulated machine instance.
type System struct {
	params Params
	prog   *program.Program
	cpu    *ooo.CPU
	tc     *tcache.TCache
	cc     *cfgcache.Cache
	fabs   *cfgcache.Fabrics

	session    *mapper.Session
	sessionKey tcache.TraceKey

	// traces holds the framework's record of every trace fetch has walked;
	// configs the invocation state of every configuration offloaded.
	traces  map[tcache.TraceKey]*traceState
	configs map[*fabric.Config]*cfgState
	// mappedTraces and offloadedTraces count the records whose mapped and
	// offloaded flags have flipped.
	mappedTraces    int
	offloadedTraces int

	branchesSeen  uint64
	lastStoreDone int64

	stats Stats

	// Sampled-simulation bookkeeping (sample.go); untouched in full-detail
	// runs. simFFCycles accumulates the estimated cycle cost of
	// fast-forwarded regions (ff insts × most recent detailed-window CPI).
	simWindows  []WindowStat
	simFFInsts  uint64
	simFFCycles float64

	// probe is the attached observability tracer; nil (the default) means
	// tracing is disabled and every probe call below is a nil-receiver
	// no-op. inflightTotal mirrors the sum of the configs' inflight
	// counts for the FIFO occupancy probe point.
	probe         *probe.Probe
	inflightTotal int

	// cpiPrev is the last CPI-stack snapshot emitted to the probe's
	// counter track; the sampler sends per-cause deltas against it.
	// cpiPrevEst mirrors the synthetic estimated bucket the same way.
	cpiPrev    [cpistack.NumCauses]uint64
	cpiPrevEst uint64
}

// traceState is the framework's record of one trace.
type traceState struct {
	key tcache.TraceKey
	// mapped and offloaded latch once a configuration was produced and
	// once it first ran on the fabric.
	mapped    bool
	offloaded bool
	// blockNext denies the next offload after a squash so that occurrence
	// re-executes on the host (the block-once rule, §3.2).
	blockNext bool
	// disabled blacklists a trace that proved unstable or unmappable;
	// aborts counts its mapping aborts toward that. The periodic clear in
	// noteBranch resets both so phase changes get another chance.
	disabled bool
	aborts   int
	// commits and exits are the evaluated invocations the chronic-exit
	// filter (noteExit) judges.
	commits uint64
	exits   uint64
}

// cfgState is the invocation state of one configuration, the configuration
// of trace ts. It is the ooo.TraceBackend of every invocation of it.
type cfgState struct {
	s   *System
	cfg *fabric.Config
	ts  *traceState
	// trace is the pipeline-facing description, derived once from cfg.
	trace ooo.TraceInject
	// inst is the fabric instance the latest Acquire placed cfg on;
	// results depend on the instance only through its scratch and stats.
	inst *fabric.Fabric
	// inflight counts in-flight invocations, bounded by the FIFO depth.
	inflight int
	// penalty is the reconfiguration penalty owed by the next evaluation.
	penalty int
	// prevStarts is the previous invocation's schedule (per-PE initiation
	// constraint).
	prevStarts []int64
	// prevEval is the cycle of the previous evaluation, valid once
	// evaluated is set.
	prevEval  uint64
	evaluated bool
}

// New builds a System over prog and memory m.
func New(params Params, prog *program.Program, m *mem.Memory) *System {
	if params.TraceLen < 2 {
		panic("core: TraceLen must be at least 2")
	}
	s := &System{
		params:  params,
		prog:    prog,
		cpu:     ooo.New(params.OOO, prog, m, nil),
		tc:      tcache.New(params.TCache),
		cc:      cfgcache.New(params.CfgCache),
		fabs:    cfgcache.NewFabrics(params.NumFabrics, params.Geometry, params.ReconfigPenalty),
		traces:  make(map[tcache.TraceKey]*traceState),
		configs: make(map[*fabric.Config]*cfgState),
	}
	if params.Mode != ModeBaseline {
		s.cpu.SetHooks(s.hooks())
	}
	return s
}

// CPU exposes the underlying pipeline (stats, architectural state).
func (s *System) CPU() *ooo.CPU { return s.cpu }

// TCache exposes the trace detection unit.
func (s *System) TCache() *tcache.TCache { return s.tc }

// CfgCache exposes the configuration cache.
func (s *System) CfgCache() *cfgcache.Cache { return s.cc }

// Fabrics exposes the fabric manager.
func (s *System) Fabrics() *cfgcache.Fabrics { return s.fabs }

// Params returns the system's configuration.
func (s *System) Params() Params { return s.params }

// Stats returns the framework counters.
func (s *System) Stats() Stats { return s.stats }

// Probe returns the attached observability probe (nil when disabled).
func (s *System) Probe() *probe.Probe { return s.probe }

// SetProbe attaches p to the whole system: the pipeline hooks plus the
// detection, configuration-cache, and fabric probe points. It wires p's
// clock to the pipeline's cycle counter and its disassembler to the
// program, so exported events are cycle-stamped and labelled. In baseline
// mode — where New installs no hooks at all — it installs the hook set then,
// which in baseline only feeds the probe, so baseline behavior is
// bit-identical with and without tracing. Call with nil to detach (the
// baseline hooks stay installed but become no-ops).
func (s *System) SetProbe(p *probe.Probe) {
	s.probe = p
	p.SetClock(s.cpu.Cycle)
	p.SetDisasm(func(pc int) string {
		if !s.prog.Valid(pc) {
			return ""
		}
		return s.prog.At(pc).String()
	})
	s.tc.SetProbe(p)
	s.cc.SetProbe(p)
	s.fabs.SetProbe(p)
	if p != nil {
		s.cpu.SetCPISampler(s.emitCPISamples)
	} else {
		s.cpu.SetCPISampler(nil)
	}
	if s.params.Mode == ModeBaseline && p != nil {
		s.cpu.SetHooks(s.hooks())
	}
}

// emitCPISamples sends the per-cause cycle deltas accumulated since the last
// sample to the probe as EvCPISample events (the Perfetto counter track).
// Attribution itself lives in the pipeline's stack; this only reads it, so a
// probed run stays cycle-identical to an unprobed one.
func (s *System) emitCPISamples(cycle uint64) {
	if s.probe == nil {
		return
	}
	st := s.cpu.CPIStack()
	for i, v := range st.Buckets {
		if d := v - s.cpiPrev[i]; d > 0 {
			s.probe.CPISample(cycle, int64(i), int64(d))
			s.cpiPrev[i] = v
		}
	}
}

// FlushCPISamples emits the final CPI-stack deltas (including the synthetic
// estimated bucket of reduced-fidelity runs) so the counter track's running
// totals reach the run's exact stack. Call once after the run completes.
func (s *System) FlushCPISamples() {
	if s.probe == nil {
		return
	}
	cycle := s.cpu.Cycle()
	s.emitCPISamples(cycle)
	if est := uint64(s.simFFCycles + 0.5); est > s.cpiPrevEst {
		s.probe.CPISample(cycle, int64(cpistack.CauseEstimated), int64(est-s.cpiPrevEst))
		s.cpiPrevEst = est
	}
}

// CPIStack returns the run's cycle-accounting stack: the pipeline's
// per-cause detail buckets plus the synthetic estimated bucket covering
// fast-forwarded regions, so Total() equals SimStats().EstCycles exactly
// under every SimPolicy.
func (s *System) CPIStack() cpistack.Stack {
	st := *s.cpu.CPIStack()
	st.Buckets[cpistack.CauseEstimated] = uint64(s.simFFCycles + 0.5)
	return st
}

// MappedTraces returns how many distinct traces were successfully mapped.
func (s *System) MappedTraces() int { return s.mappedTraces }

// OffloadedTraces returns how many distinct traces ran on the fabric.
func (s *System) OffloadedTraces() int { return s.offloadedTraces }

// Run simulates until the program halts.
func (s *System) Run() error {
	return s.RunCtx(context.Background())
}

// RunCtx simulates until the program halts or ctx is cancelled, whichever
// comes first. Parallel sweeps use it so one failing cell can stop the
// others mid-simulation. The Sim policy in Params selects fidelity: full
// detail runs the cycle-accurate pipeline end to end, while ff/sampled
// interleave functional fast-forwarding (see sample.go).
func (s *System) RunCtx(ctx context.Context) error {
	if s.params.Sim.Mode == SimFull {
		return s.cpu.RunCtx(ctx)
	}
	return s.runSampledCtx(ctx)
}

// hooks wires the framework into the pipeline. The probe and mapping-session
// callbacks are no-ops without a probe or an open session, so they are safe
// in every mode; trace detection, mapping and offload hook in only outside
// baseline, where a probed run must stay cycle-identical to an unprobed one.
func (s *System) hooks() ooo.Hooks {
	h := ooo.Hooks{
		OnFetch: func(pc int, seq uint64) {
			if s.probe != nil {
				s.probe.Fetch(s.cpu.Cycle(), seq, pc)
			}
			if s.session != nil {
				s.session.NoteFetched(pc, seq)
				s.checkSession()
			}
		},
		OnIssue: func(e *ooo.RSEntry, fu isa.FUType, unit int) {
			if s.probe != nil {
				s.probe.Issue(s.cpu.Cycle(), e.Seq(), e.PC(), int64(fu), int64(unit))
			}
			if s.session != nil {
				s.session.NoteIssued(e, fu, unit)
				s.checkSession()
			}
		},
		OnWriteback: func(pc int, seq uint64) {
			if s.probe != nil {
				s.probe.Writeback(s.cpu.Cycle(), seq, pc)
			}
			if s.session != nil {
				s.session.NoteWriteback(pc, seq)
				s.checkSession()
			}
		},
		OnCommit: func(pc int, seq uint64, op isa.Op) {
			if s.probe != nil {
				s.probe.Commit(s.cpu.Cycle(), seq, pc)
			}
			if s.session != nil {
				s.stats.MappedCommits++
			}
		},
		OnSquash: func(seqBoundary uint64) {
			if s.probe != nil {
				s.probe.PipelineSquash(s.cpu.Cycle(), seqBoundary)
			}
			if s.session != nil {
				s.session.Abort()
				s.checkSession()
			}
		},
	}
	if s.params.Mode == ModeBaseline {
		return h
	}
	h.BeforeFetch = s.beforeFetch
	h.DispatchGate = func(pc int, seq uint64, robEmpty bool) bool {
		if s.session != nil {
			return s.session.GateDispatch(pc, seq, robEmpty)
		}
		return true
	}
	h.BeginIssue = func() {
		if s.session != nil {
			s.session.BeginIssue()
			s.checkSession()
		}
	}
	h.SelectOverride = func(fu isa.FUType, unit int, ready []*ooo.RSEntry) int {
		if s.session != nil {
			return s.session.Select(fu, unit, ready)
		}
		return 0
	}
	h.OnCommitBranch = s.noteBranch
	return h
}

// trace returns key's record, creating it on first sight.
func (s *System) trace(key tcache.TraceKey) *traceState {
	ts := s.traces[key]
	if ts == nil {
		ts = &traceState{key: key}
		s.traces[key] = ts
	}
	return ts
}

// config returns the invocation state of cfg, the configuration of trace ts,
// creating it on first use.
func (s *System) config(ts *traceState, cfg *fabric.Config) *cfgState {
	cs := s.configs[cfg]
	if cs != nil {
		return cs
	}
	cs = &cfgState{s: s, cfg: cfg, ts: ts}
	tr := &cs.trace
	*tr = ooo.TraceInject{
		StartPC:      cfg.StartPC,
		ExitPC:       cfg.ExitPC,
		LiveIns:      cfg.LiveIns,
		LiveOuts:     cfg.LiveOuts,
		Conservative: s.params.Mode == ModeAccelNoSpec,
		Backend:      cs,
	}
	for i := range cfg.Insts {
		mi := &cfg.Insts[i]
		switch {
		case mi.Inst.Op.IsCondBranch():
			tr.PredDirs = append(tr.PredDirs, mi.ExpectTaken)
		case mi.Inst.Op.IsLoad():
			tr.LoadPCs = append(tr.LoadPCs, mi.PC)
		case mi.Inst.Op.IsStore():
			tr.StorePCs = append(tr.StorePCs, mi.PC)
		}
	}
	s.configs[cfg] = cs
	return cs
}

// noteBranch feeds one committed branch outcome to trace detection and
// periodically clears the instability blacklist (mirroring the paper's
// periodic counter clearing, §3.1).
func (s *System) noteBranch(pc int, taken bool) {
	if _, became := s.tc.OnBranchCommit(pc, taken); became {
		s.stats.TracesDetected++
	}
	s.branchesSeen++
	if s.branchesSeen%(1<<17) == 0 {
		for _, ts := range s.traces {
			ts.disabled = false
			ts.aborts = 0
		}
	}
}

// abortSessionForSample reaps an in-flight mapping session before a
// sampled-simulation drain WITHOUT the instability penalty: the abort is an
// artifact of the sampling schedule, not of the trace's behavior, so it must
// not feed the abort-count blacklist (otherwise every hot trace gets
// disabled after a few windows and sampled runs stop offloading entirely).
func (s *System) abortSessionForSample() {
	if s.session == nil {
		return
	}
	s.session.Abort()
	s.stats.MappingAborted++
	s.endSession(probe.MapAborted, 0)
}

// endSession closes the open mapping session with the given probe outcome
// and hands the issue stage back to the pipeline.
func (s *System) endSession(outcome int64, traceLen int) {
	if s.probe != nil {
		s.probe.MapEnd(s.cpu.Cycle(), s.sessionKey.AnchorPC, outcome, traceLen)
	}
	s.session = nil
	s.cpu.SetMapperActive(false)
}

// checkSession reaps a finished or failed mapping session.
func (s *System) checkSession() {
	if s.session == nil {
		return
	}
	key := s.sessionKey
	switch s.session.State() {
	case mapper.SessionDone:
		cfg := s.session.Config()
		s.cc.Store(key, cfg)
		if ts := s.trace(key); !ts.mapped {
			ts.mapped = true
			s.mappedTraces++
		}
		s.stats.TracesMapped++
		s.endSession(probe.MapDone, len(cfg.Insts))
	case mapper.SessionFailed:
		ts := s.trace(key)
		if s.session.FailReason() == mapper.FailAborted {
			s.endSession(probe.MapAborted, 0)
			s.stats.MappingAborted++
			// A trace whose mapping keeps aborting (squashes or
			// fetch divergence) follows an unstable path; back off.
			ts.aborts++
			if ts.aborts >= 4 {
				ts.disabled = true
				s.tc.Unhot(key)
				s.stats.TracesDisabled++
			}
			return
		}
		// Structurally unmappable: blacklist it until the periodic
		// clear, after which it must turn hot again to be retried.
		s.endSession(probe.MapFailed, 0)
		ts.disabled = true
		s.tc.Unhot(key)
		s.stats.MappingFailed++
	}
}

// beforeFetch implements the fetch side of §3.1: on reaching a branch, look
// three predicted branches ahead, consult the T-Cache and configuration
// cache, and either inject an offloaded invocation, start a mapping session,
// or fall through to normal fetch.
func (s *System) beforeFetch(pc int) (*ooo.TraceInject, uint64) {
	if s.session != nil {
		return nil, 0
	}
	in := s.prog.At(pc)
	if !in.Op.IsBranch() {
		return nil, 0
	}
	// Key first: the lookups below need only the TraceKey, so the walk
	// builds no body unless a mapping session opens.
	_, key, _, ok := s.walkTrace(pc, false)
	if !ok {
		return nil, 0
	}
	ts := s.trace(key)
	if ts.disabled {
		return nil, 0
	}

	if entry := s.cc.Lookup(key); entry != nil {
		state, _ := s.cc.Predicted(key)
		if state != cfgcache.StateReady || !s.params.Mode.Offloads() {
			return nil, 0
		}
		if ts.blockNext {
			ts.blockNext = false
			s.stats.OffloadDenied++
			s.probe.TraceDenied(s.cpu.Cycle(), pc, probe.DeniedBlockOnce)
			return nil, 0
		}
		cs := s.config(ts, entry.Cfg)
		if cs.inflight >= s.params.Geometry.FIFODepth {
			// Input FIFOs full: let the host execute this occurrence
			// rather than stall fetch behind a long drain.
			s.stats.OffloadDenied++
			s.probe.TraceDenied(s.cpu.Cycle(), pc, probe.DeniedFIFO)
			return nil, 0
		}
		return s.inject(cs)
	}

	if !s.tc.IsHot(key) {
		return nil, 0
	}
	// Hot but unmapped: begin a mapping session; the trace instructions
	// flow through the pipeline normally while the issue unit maps them.
	// The walk is repeated with the body: the predictor is unchanged since
	// the key walk, so it follows the same path.
	trace, _, exitPC, _ := s.walkTrace(pc, true)
	s.session = mapper.NewSession(trace, s.params.Geometry, pc, exitPC)
	s.cpu.SetMapperActive(true)
	s.sessionKey = key
	s.stats.MappingSessions++
	s.probe.MapStart(s.cpu.Cycle(), pc, key.Dirs)
	return nil, 0
}

// inject offloads one invocation of cs's configuration and returns the
// configuration's trace description with the new invocation's id.
func (s *System) inject(cs *cfgState) (*ooo.TraceInject, uint64) {
	var penalty int
	cs.inst, penalty = s.fabs.Acquire(cs.cfg)
	if penalty > 0 {
		cs.penalty = penalty
	}
	cs.inflight++
	s.inflightTotal++
	if !cs.ts.offloaded {
		cs.ts.offloaded = true
		s.offloadedTraces++
	}
	s.stats.Offloads++
	// The running offload count doubles as the invocation id in probe
	// events, correlating inject/evaluate/commit/squash across tracks.
	id := s.stats.Offloads
	s.probe.TraceInject(s.cpu.Cycle(), id, cs.cfg.StartPC, cs.cfg.ExitPC, len(cs.cfg.Insts))
	s.probe.FIFOOccupancy(s.cpu.Cycle(), s.inflightTotal)
	return &cs.trace, id
}

// Evaluate runs invocation id on the fabric.
func (cs *cfgState) Evaluate(id uint64, in ooo.TraceInput) ooo.TraceResult {
	s, cfg := cs.s, cs.cfg
	delay := cs.penalty
	cs.penalty = 0
	s.probe.TraceEvalStart(in.Cycle, id, cfg.StartPC, int64(delay))
	env := fabric.EvalEnv{
		ReadMem:      in.ReadMem,
		AccessMem:    s.cpu.Hierarchy().AccessData,
		MemDep:       s.cpu.MemDep(),
		Speculative:  s.params.Mode == ModeAccel,
		StartupDelay: delay,
	}
	res := cs.inst.Run(fabric.Invocation{
		Cfg:        cfg,
		LiveIns:    in.LiveIns,
		Arrivals:   in.Arrivals,
		PrevStarts: cs.prevStarts,
		Now:        int64(in.Cycle),
		OrderAfter: s.lastStoreDone,
	}, env)
	res.ConfigWait = delay
	if res.ExitMatches && !res.MemViolation {
		cs.prevStarts = res.StartTimes
		if res.LastStoreDone > s.lastStoreDone {
			s.lastStoreDone = res.LastStoreDone
		}
	}
	s.stats.InvocLatencySum += uint64(res.Latency)
	s.stats.InvocCount++
	ii := int64(-1)
	if cs.evaluated && in.Cycle > cs.prevEval {
		s.stats.InvocIISum += in.Cycle - cs.prevEval
		s.stats.InvocIICount++
		ii = int64(in.Cycle - cs.prevEval)
	}
	cs.prevEval, cs.evaluated = in.Cycle, true
	s.probe.TraceEvalEnd(in.Cycle+uint64(res.Latency), id, cfg.StartPC, int64(res.Latency), int64(res.Ops), ii)
	return res
}

// Complete frees the invocation's input/output FIFO entries.
func (cs *cfgState) Complete(id uint64) {
	cs.inflight--
	cs.s.inflightTotal--
	cs.s.probe.FIFOOccupancy(cs.s.cpu.Cycle(), cs.s.inflightTotal)
}

// Commit feeds the invocation's branch outcomes to trace detection and
// recycles its records.
func (cs *cfgState) Commit(id uint64, res *ooo.TraceResult) {
	s := cs.s
	s.stats.TraceCommits++
	s.probe.TraceCommit(s.cpu.Cycle(), id, cs.cfg.StartPC, int64(res.Ops))
	cs.ts.commits++
	for _, b := range res.Branches {
		s.noteBranch(b.PC, b.Taken)
	}
	cs.inst.Release(res)
}

// Squash sends the trace's next occurrence to the host when the trace
// caused the squash itself (block-once), and recycles an evaluated
// invocation's records.
func (cs *cfgState) Squash(id uint64, kind ooo.SquashKind, res *ooo.TraceResult) {
	s := cs.s
	s.stats.TraceSquashes++
	s.probe.TraceSquash(s.cpu.Cycle(), id, cs.cfg.StartPC, int64(kind), kind.String())
	switch kind {
	case ooo.SquashBranchExit:
		s.stats.BranchExits++
		cs.ts.blockNext = true
		s.noteExit(cs.ts)
	case ooo.SquashMemOrder:
		s.stats.MemOrderKills++
		cs.ts.blockNext = true
	case ooo.SquashExternal:
		s.stats.ExternalKills++
	}
	if res != nil {
		cs.inst.Release(res)
	}
}

// noteExit tracks per-trace branch-exit rates over evaluated invocations; a
// trace whose invocations chronically leave the recorded path wastes fabric
// work and squash bandwidth, so its configuration is dropped and its hot
// flag cleared until detection re-trains it.
func (s *System) noteExit(ts *traceState) {
	ts.exits++
	evaluated := ts.exits + ts.commits
	if evaluated >= 8 && ts.exits*4 >= evaluated {
		s.cc.Invalidate(ts.key)
		s.tc.Unhot(ts.key)
		ts.disabled = true
		ts.commits, ts.exits = 0, 0
		s.stats.TracesDisabled++
	}
}

// walkTrace follows the predicted path from the anchor branch at pc,
// predicting up to three branch directions to form the trace key. With body
// set it also collects the trace body, up to the length cap, the fourth
// branch, or a halt, into a fresh slice the caller owns; without it the walk
// stops at the third branch, returns a nil body and allocates nothing. The
// branch predictor is left as found.
func (s *System) walkTrace(pc int, body bool) (trace []mapper.TraceInst, key tcache.TraceKey, exitPC int, ok bool) {
	if !s.prog.Valid(pc) || !s.prog.At(pc).Op.IsBranch() {
		return nil, tcache.TraceKey{}, 0, false
	}
	if body {
		trace = make([]mapper.TraceInst, 0, s.params.TraceLen)
	}
	bp := s.cpu.Branch()
	hist := bp.History()
	savedHist := hist
	var dirs uint8
	cur := pc
	branches := 0
	for steps := 0; steps < 4*s.params.TraceLen; steps++ {
		if !s.prog.Valid(cur) {
			break
		}
		in := s.prog.At(cur)
		if in.Op == isa.OpHalt {
			break
		}
		collect := body && len(trace) < s.params.TraceLen
		if in.Op.IsBranch() {
			if branches == tcache.HistoryLen {
				break // fourth branch ends the body
			}
			var taken bool
			if in.Op == isa.OpJmp {
				taken = true
			} else {
				bp.Restore(hist)
				taken = bp.PredictDirection(uint64(cur))
				hist = hist<<1 | boolBit(taken)
			}
			if taken {
				dirs |= 1 << uint(branches)
			}
			if collect {
				trace = append(trace, mapper.TraceInst{PC: cur, Inst: in, ExpectTaken: taken})
				exitPC = nextPC(cur, in, taken)
			}
			branches++
			if branches == tcache.HistoryLen && !body {
				break // the key is complete
			}
			cur = nextPC(cur, in, taken)
			continue
		}
		if collect {
			trace = append(trace, mapper.TraceInst{PC: cur, Inst: in})
			exitPC = cur + 1
		}
		cur++
	}
	bp.Restore(savedHist)
	// A body also needs at least two instructions. That holds whenever the
	// key is complete: every walked instruction joins the body until the
	// cap, three were walked, and New enforces TraceLen >= 2.
	if branches < tcache.HistoryLen {
		return nil, tcache.TraceKey{}, 0, false
	}
	key = tcache.TraceKey{AnchorPC: pc, Dirs: dirs}
	if !body {
		return nil, key, 0, true
	}
	// Alignment: a trace that the length cap cut mid-block exits into the
	// middle of a basic block, forcing the block's remainder onto the
	// host every invocation (the paper's Figure 7 coverage effect). Trim
	// such traces to end just before their last internal branch, so the
	// exit lands on the next trace's anchor and invocations chain
	// back-to-back.
	// Very short aligned traces are not worth an invocation's overhead,
	// so only trim when a reasonable body remains.
	if s.prog.Valid(exitPC) && !s.prog.At(exitPC).Op.IsBranch() {
		for cut := len(trace) - 1; cut >= 8; cut-- {
			if trace[cut].Inst.Op.IsBranch() {
				exitPC = trace[cut].PC
				trace = trace[:cut]
				break
			}
		}
	}
	return trace, key, exitPC, true
}

func nextPC(pc int, in isa.Inst, taken bool) int {
	if taken {
		return in.Target
	}
	return pc + 1
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Verify checks framework invariants after a run; tests call it.
func (s *System) Verify() error {
	// Count violations instead of returning mid-iteration: map order is
	// randomized, so an early return (and a %p-formatted pointer) would
	// make the error message differ across runs.
	leaked := 0
	for _, cs := range s.configs {
		if cs.inflight != 0 {
			leaked++
		}
	}
	if leaked > 0 {
		return fmt.Errorf("core: %d config(s) have in-flight invocations after halt", leaked)
	}
	if s.stats.Offloads != s.stats.TraceCommits+s.stats.TraceSquashes {
		return fmt.Errorf("core: offload accounting: %d injected, %d committed, %d squashed",
			s.stats.Offloads, s.stats.TraceCommits, s.stats.TraceSquashes)
	}
	return nil
}
