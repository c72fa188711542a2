package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"time"

	"dynaspam/internal/cache"
	"dynaspam/internal/cfgcache"
	"dynaspam/internal/core"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/energy"
	"dynaspam/internal/experiments"
	"dynaspam/internal/fabric"
	"dynaspam/internal/mem"
	"dynaspam/internal/ooo"
	"dynaspam/internal/runner"
	"dynaspam/internal/stats"
	"dynaspam/internal/tcache"
	"dynaspam/internal/workloads"
)

// workers is the sweep parallelism of the in-process workloads: the CLI's
// -j 2, one worker per CPU of the 2-CPU host the bounds were set on. One
// worker measured no steadier there.
const workers = 2

// setupRepeats is how many times an in-process set-up is repeated;
// setup_s is the median. Set-up takes about a millisecond, so many repeats
// are cheap and keep one slow repeat from setting the figure.
const setupRepeats = 11

// cell is one (kernel, configuration) simulation of a sweep.
type cell struct {
	w      *workloads.Workload
	params core.Params
	label  string
}

// buildCells constructs an in-process workload's cells in canonical
// order. Building the workloads (programs and input generators) is the
// set-up that setup_s times.
func buildCells(workload string) ([]cell, error) {
	var cells []cell
	switch workload {
	case "fig8-full":
		for _, w := range workloads.All() {
			for _, m := range []core.Mode{core.ModeBaseline, core.ModeAccel} {
				p := core.DefaultParams()
				p.Mode = m
				cells = append(cells, cell{w: w, params: p, label: fmt.Sprintf("%s/%v", w.Abbrev, m)})
			}
		}
	case "scaled-sampled":
		sampled, _ := core.ParseSimMode("sampled")
		for _, ab := range []string{"BFSX100", "SPMVX100", "SCX100"} {
			w, err := workloads.ByAbbrev(ab)
			if err != nil {
				return nil, err
			}
			p := core.DefaultParams()
			p.Mode = core.ModeBaseline
			p.Sim.Mode = sampled
			cells = append(cells, cell{w: w, params: p, label: fmt.Sprintf("%s/%v/sampled", w.Abbrev, p.Mode)})
		}
	default:
		return nil, fmt.Errorf("unknown in-process workload %q", workload)
	}
	return cells, nil
}

// cellStats is what one simulated cell reports, gathered the same way
// whether it ran through experiments.RunCtx or through the traced,
// call-by-call path. Cycles and Committed follow experiments.RunResult:
// under sampling they are the estimate and include fast-forwarded
// instructions.
type cellStats struct {
	cycles, committed uint64
	energy            energy.Breakdown
	cpi               cpistack.Stack
	core              core.Stats
	cpu               ooo.Stats
	fab               fabric.Stats
	tc                tcache.Stats
	cfg               cfgcache.Stats
	sim               core.SimStats
	reconfigs         uint64
	// Cache counters are read only on the traced path; RunResult does not
	// carry them.
	l1d, l2     cache.Stats
	memAccesses uint64
	wall        time.Duration
}

// sameModel reports whether two runs of one cell produced the same
// simulated results: cycles, instructions, energy and CPI stack.
func (a *cellStats) sameModel(b *cellStats) bool {
	return a.cycles == b.cycles && a.committed == b.committed && a.energy == b.energy && a.cpi == b.cpi
}

func fromResult(r *experiments.RunResult) cellStats {
	return cellStats{
		cycles: r.Cycles, committed: r.Committed, energy: r.Energy, cpi: r.CPI,
		core: r.Core, cpu: r.CPU, fab: r.Fabric, tc: r.TCache, cfg: r.Cfg, sim: r.Sim,
		reconfigs: r.Reconfigs,
	}
}

// tracedCell runs one cell call by call, with a span around each call into
// a layer, and derives the same statistics experiments.RunProbedCtx does.
func tracedCell(ctx context.Context, tr *tracer, parent int, c cell) (cellStats, error) {
	trace := tr.newTrace()
	root := tr.start("cell", trace, parent)
	defer tr.end(root)
	call := func(name string, f func()) {
		id := tr.start(name, trace, root)
		f()
		tr.end(id)
	}
	var (
		m, golden *mem.Memory
		sys       *core.System
		runErr    error
		verErr    error
		eq        bool
		diff      string
	)
	call("workloads.NewMemory", func() { m = c.w.NewMemory() })
	call("core.New", func() { sys = core.New(c.params, c.w.Prog, m) })
	call("core.System.RunCtx", func() { runErr = sys.RunCtx(ctx) })
	if runErr != nil {
		return cellStats{}, fmt.Errorf("%s: %w", c.label, runErr)
	}
	call("core.System.Verify", func() { verErr = sys.Verify() })
	if verErr != nil {
		return cellStats{}, fmt.Errorf("%s: %w", c.label, verErr)
	}
	call("workloads.GoldenMemory", func() { golden = c.w.GoldenMemory() })
	call("mem.Equal", func() { eq, diff = golden.Equal(m) })
	if !eq {
		return cellStats{}, fmt.Errorf("%s: architectural mismatch: %s", c.label, diff)
	}

	cpu := sys.CPU().Stats()
	hier := sys.CPU().Hierarchy()
	var fs fabric.Stats
	for i := 0; i < sys.Fabrics().NumFabrics(); i++ {
		s := sys.Fabrics().Instance(i).Stats()
		fs.Invocations += s.Invocations
		fs.OpsExecuted += s.OpsExecuted
		for t := range s.FUOps {
			fs.FUOps[t] += s.FUOps[t]
		}
		fs.PassRegMoves += s.PassRegMoves
		fs.GlobalBusMoves += s.GlobalBusMoves
		fs.Loads += s.Loads
		fs.Stores += s.Stores
		fs.Violations += s.Violations
		fs.EarlyExits += s.EarlyExits
		fs.ActivePECycles += s.ActivePECycles
		fs.IdlePECycles += s.IdlePECycles
	}
	st := cellStats{
		cycles: cpu.Cycles, committed: cpu.Committed,
		energy: energy.DefaultModel().Compute(energy.Inputs{
			CPU: cpu, Hier: hier, FabricStat: fs, Reconfigs: sys.Fabrics().Reconfigurations(),
		}),
		cpi: sys.CPIStack(), core: sys.Stats(), cpu: cpu, fab: fs,
		tc: sys.TCache().Stats(), cfg: sys.CfgCache().Stats(), sim: sys.SimStats(),
		reconfigs: sys.Fabrics().Reconfigurations(),
		l1d:       hier.L1D.Stats(), l2: hier.L2.Stats(), memAccesses: hier.MemAccesses,
	}
	if st.sim.FFInsts > 0 {
		st.cycles = st.sim.EstCycles
		st.committed = st.sim.DetailInsts + st.sim.FFInsts
		scale := float64(st.committed) / float64(st.sim.DetailInsts)
		for i := range st.energy {
			st.energy[i] *= scale
		}
	}
	return st, nil
}

// pass is one sweep of every cell through runner.Run.
type pass struct {
	wall      time.Duration
	peakRSSMB float64
	stats     []cellStats // canonical cell order
}

// sweeper runs passes of a cell set and checks every result.
type sweeper struct {
	name      string
	cells     []cell
	rng       *rand.Rand
	attempted atomic.Int64
	failed    atomic.Int64
	ref       []*cellStats // first result of each cell, for the repeat check
	errs      []string
	notes     []string
	noReset   bool
}

// run executes one pass in a seeded cell order. With a tracer the cells
// take the traced path; without one they run through experiments.RunCtx,
// as the figures and dynaspam CLIs do. A failed or inconsistent cell is
// counted and ends the pass's usefulness; run returns false then.
func (s *sweeper) run(ctx context.Context, tr *tracer) (pass, bool) {
	order := s.rng.Perm(len(s.cells))
	trace := tr.newTrace()
	span := tr.start("runner.Run", trace, -1)
	jobs := make([]runner.Job[cellStats], len(order))
	for i, ci := range order {
		c := s.cells[ci]
		jobs[i] = runner.Job[cellStats]{Label: c.label, Run: func(ctx context.Context) (cellStats, error) {
			s.attempted.Add(1)
			t0 := time.Now()
			var st cellStats
			var err error
			if tr != nil {
				st, err = tracedCell(ctx, tr, span, c)
			} else {
				var res *experiments.RunResult
				if res, err = experiments.RunCtx(ctx, c.w, c.params); err == nil {
					st = fromResult(res)
				}
			}
			if err != nil {
				s.failed.Add(1)
				return st, err
			}
			st.wall = time.Since(t0)
			return st, nil
		}}
	}
	if err := resetPeakRSS(); err != nil && !s.noReset {
		// Without the reset each pass's peak covers every pass before it
		// too; say so once and keep measuring.
		s.noReset = true
		s.notes = append(s.notes, err.Error()+"; peak_rss_mb is the peak since start")
	}
	t0 := time.Now()
	res, err := runner.Run(ctx, runner.Options{Parallelism: workers, Name: s.name}, jobs)
	p := pass{wall: time.Since(t0), stats: make([]cellStats, len(s.cells))}
	tr.end(span)
	if rss, rerr := peakRSSMB(0); rerr == nil {
		p.peakRSSMB = rss
	} else if err == nil {
		err = rerr
	}
	if err != nil {
		s.errs = append(s.errs, err.Error())
		return p, false
	}
	ok := true
	for i, ci := range order {
		p.stats[ci] = res[i]
		if s.ref[ci] == nil {
			s.ref[ci] = &p.stats[ci]
		} else if !s.ref[ci].sameModel(&p.stats[ci]) {
			s.failed.Add(1)
			s.errs = append(s.errs, fmt.Sprintf("%s: simulated results differ from the cell's first run (nondeterminism, or an observer effect of tracing)", s.cells[ci].label))
			ok = false
		}
	}
	return p, ok
}

// runFor runs passes until d has elapsed (at least minPasses of them) or a
// pass fails.
func (s *sweeper) runFor(ctx context.Context, d time.Duration, minPasses int, tr *tracer) ([]pass, time.Duration) {
	var ps []pass
	start := time.Now()
	for len(ps) < minPasses || time.Since(start) < d {
		p, ok := s.run(ctx, tr)
		ps = append(ps, p)
		if !ok {
			break
		}
	}
	return ps, time.Since(start)
}

// modelMetrics derives the simulated-machine figures of one pass. The
// speed-up and energy geomeans need a baseline and an accel-spec cell of
// every kernel, which only fig8-full has; elsewhere they read 0.
func modelMetrics(cells []cell, st []cellStats) (map[string]float64, error) {
	m := map[string]float64{}
	var cycles, committed uint64
	var cpi cpistack.Stack
	type pair struct{ base, accel *cellStats }
	byKernel := map[string]*pair{}
	var kernels []string
	for i, c := range cells {
		cycles += st[i].cycles
		committed += st[i].committed
		cpi.AddStack(&st[i].cpi)
		p := byKernel[c.w.Abbrev]
		if p == nil {
			p = &pair{}
			byKernel[c.w.Abbrev] = p
			kernels = append(kernels, c.w.Abbrev)
		}
		switch c.params.Mode {
		case core.ModeBaseline:
			p.base = &st[i]
		case core.ModeAccel:
			p.accel = &st[i]
		}
	}
	m["model.cycles"] = float64(cycles)
	m["model.ipc"] = stats.Ratio(float64(committed), float64(cycles))
	for _, c := range cpistack.Causes() {
		m["cpistack."+c.String()] = float64(cpi.Get(c))
	}
	m["model.speedup_geomean"], m["model.energy_reduction_geomean"] = 0, 0
	var speedups []float64
	var rows []experiments.Fig9Row
	for _, k := range kernels {
		p := byKernel[k]
		if p.base == nil || p.accel == nil {
			return m, nil
		}
		speedups = append(speedups, stats.Ratio(float64(p.base.cycles), float64(p.accel.cycles)))
		rows = append(rows, experiments.Fig9Row{Workload: k, Baseline: p.base.energy, DynaSpAM: p.accel.energy})
	}
	g, err := stats.GeomeanErr(speedups)
	if err != nil {
		return nil, err
	}
	e, err := experiments.GeomeanEnergyReduction(rows)
	if err != nil {
		return nil, err
	}
	m["model.speedup_geomean"], m["model.energy_reduction_geomean"] = g, e
	return m, nil
}

// runInProcess runs fig8-full or scaled-sampled.
func runInProcess(ctx context.Context, cfg config) (*outcome, error) {
	var cells []cell
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cs, err := buildCells(cfg.workload)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cells = cs
	}
	s := &sweeper{name: cfg.workload, cells: cells, rng: rand.New(rand.NewSource(cfg.seed)), ref: make([]*cellStats, len(cells))}
	out := &outcome{m: map[string]float64{}}
	if !cfg.trace {
		ps, wall := s.runFor(ctx, cfg.duration, 1, nil)
		var insts uint64
		var cellWalls []float64
		for pi, p := range ps {
			for _, st := range p.stats {
				if pi == 0 {
					insts += st.committed
				}
				cellWalls = append(cellWalls, st.wall.Seconds())
			}
		}
		// Every pass does the same work, so throughput and memory are
		// medians over passes: a burst of host noise moves one pass, not
		// the figure.
		pw, rss := make([]float64, len(ps)), make([]float64, len(ps))
		for i, p := range ps {
			pw[i], rss[i] = p.wall.Seconds(), p.peakRSSMB
		}
		out.m["sim_minst_per_s"] = float64(insts) / 1e6 / median(pw)
		out.m["setup_s"] = median(setups)
		out.m["peak_rss_mb"] = median(rss)
		out.m["jobs_per_s"] = float64(len(cells)) / median(pw)
		out.timings("job_fresh", cellWalls)
		out.notef("%d passes of %d cells in %.2f s; pass wall min %.3f median %.3f max %.3f s; peak RSS per pass max %.1f MB",
			len(ps), len(cells), wall.Seconds(), slices.Min(pw), median(pw), slices.Max(pw), slices.Max(rss))
	} else {
		if err := s.traced(ctx, cfg, out); err != nil {
			return nil, err
		}
	}
	out.attempted = int(s.attempted.Load())
	out.failed = int(s.failed.Load())
	out.errs = s.errs
	out.notes = append(out.notes, s.notes...)
	return out, nil
}

// traced is the per-layer run: half the time untraced, half traced with
// spans, a CPU profile and runtime-metric deltas.
func (s *sweeper) traced(ctx context.Context, cfg config, out *outcome) error {
	untraced, _ := s.runFor(ctx, cfg.duration/2, 2, nil)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	rt0 := readRuntime()
	tracedPasses, _ := s.runFor(ctx, cfg.duration/2, 2, tr)
	rt1 := readRuntime()
	pprof.StopCPUProfile()

	// The observer check is run's per-cell check: every pass of both halves
	// must repeat each cell's first result exactly, so the model and
	// CPI-stack values of every pass are equal too.
	if s.failed.Load() == 0 {
		model, err := modelMetrics(s.cells, tracedPasses[0].stats)
		if err != nil {
			return err
		}
		for k, v := range model {
			out.m[k] = v
		}
	}

	n := float64(len(tracedPasses))
	var sum cellStats
	var insts uint64
	for _, st := range tracedPasses[0].stats {
		sum.core.MappingSessions += st.core.MappingSessions
		sum.core.TracesMapped += st.core.TracesMapped
		sum.core.Offloads += st.core.Offloads
		sum.core.OffloadDenied += st.core.OffloadDenied
		sum.core.TraceCommits += st.core.TraceCommits
		sum.core.TracesDisabled += st.core.TracesDisabled
		sum.cpu.Committed += st.cpu.Committed
		sum.cpu.Cycles += st.cpu.Cycles
		sum.cpu.Issued += st.cpu.Issued
		sum.cpu.Squashed += st.cpu.Squashed
		sum.cpu.BranchMispredicts += st.cpu.BranchMispredicts
		sum.tc.Hits += st.tc.Hits
		sum.tc.Misses += st.tc.Misses
		sum.cfg.Hits += st.cfg.Hits
		sum.cfg.Misses += st.cfg.Misses
		sum.reconfigs += st.reconfigs
		sum.fab.Invocations += st.fab.Invocations
		sum.fab.OpsExecuted += st.fab.OpsExecuted
		sum.fab.Violations += st.fab.Violations
		sum.fab.EarlyExits += st.fab.EarlyExits
		sum.l1d.Accesses += st.l1d.Accesses
		sum.l1d.Misses += st.l1d.Misses
		sum.l2.Accesses += st.l2.Accesses
		sum.l2.Misses += st.l2.Misses
		sum.memAccesses += st.memAccesses
		sum.sim.FFInsts += st.sim.FFInsts
		sum.sim.Windows += st.sim.Windows
		insts += st.committed
	}
	ratio := func(a, b uint64) float64 { return stats.Ratio(float64(a), float64(b)) }
	perPass := func(name string) float64 { return tr.total(name).Seconds() / n }
	m := out.m
	m["core.new_s"] = perPass("core.New")
	m["core.run_s"] = perPass("core.System.RunCtx")
	m["core.verify_s"] = perPass("core.System.Verify")
	m["workloads.new_memory_s"] = perPass("workloads.NewMemory")
	m["workloads.golden_s"] = perPass("workloads.GoldenMemory")
	m["core.mapping_sessions"] = float64(sum.core.MappingSessions)
	m["core.map_success_ratio"] = ratio(sum.core.TracesMapped, sum.core.MappingSessions)
	m["core.offloads"] = float64(sum.core.Offloads)
	m["core.offload_denied"] = float64(sum.core.OffloadDenied)
	m["core.offload_commit_ratio"] = ratio(sum.core.TraceCommits, sum.core.Offloads)
	m["core.traces_disabled"] = float64(sum.core.TracesDisabled)
	m["ooo.committed"] = float64(sum.cpu.Committed)
	m["ooo.cycles"] = float64(sum.cpu.Cycles)
	m["ooo.issued"] = float64(sum.cpu.Issued)
	m["ooo.squashed"] = float64(sum.cpu.Squashed)
	m["ooo.branch_mispredicts"] = float64(sum.cpu.BranchMispredicts)
	m["tcache.hit_rate"] = ratio(sum.tc.Hits, sum.tc.Hits+sum.tc.Misses)
	m["cfgcache.hit_rate"] = ratio(sum.cfg.Hits, sum.cfg.Hits+sum.cfg.Misses)
	m["cfgcache.reconfigs"] = float64(sum.reconfigs)
	m["fabric.invocations"] = float64(sum.fab.Invocations)
	m["fabric.ops"] = float64(sum.fab.OpsExecuted)
	m["fabric.violations"] = float64(sum.fab.Violations)
	m["fabric.early_exits"] = float64(sum.fab.EarlyExits)
	m["cache.l1d_miss_rate"] = ratio(sum.l1d.Misses, sum.l1d.Accesses)
	m["cache.l2_miss_rate"] = ratio(sum.l2.Misses, sum.l2.Accesses)
	m["cache.mem_accesses"] = float64(sum.memAccesses)
	m["interp.ff_insts"] = float64(sum.sim.FFInsts)
	m["core.sample_windows"] = float64(sum.sim.Windows)

	kinst := float64(insts) * n / 1e3
	m["runtime.alloc_bytes_per_kinst"] = (rt1[0] - rt0[0]) / kinst
	m["runtime.mallocs_per_kinst"] = (rt1[1] - rt0[1]) / kinst
	m["runtime.gc_cycles"] = (rt1[2] - rt0[2]) / n
	m["runtime.gc_cpu_s"] = (rt1[3] - rt0[3]) / n

	m["runner.worker_busy_ratio"] = stats.Ratio(tr.total("cell").Seconds(), workers*tr.total("runner.Run").Seconds())
	for _, k := range []string{"jobs.submit_s", "jobs.queue_wait_s", "jobs.cell_wall_s", "jobs.cached_p50_s", "jobs.cache_hit_ratio", "jobs.http_get_s"} {
		m[k] = 0
	}

	shares, _, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for l, v := range shares {
		m["host."+l+"_share"] = v
	}
	uw, tw := make([]float64, len(untraced)), make([]float64, len(tracedPasses))
	for i, p := range untraced {
		uw[i] = p.wall.Seconds()
	}
	for i, p := range tracedPasses {
		tw[i] = p.wall.Seconds()
	}
	m["trace_overhead_ratio"] = stats.Ratio(median(tw), median(uw))
	out.notef("%d untraced and %d traced passes of %d cells", len(untraced), len(tracedPasses), len(s.cells))
	out.spans = tr
	return nil
}
