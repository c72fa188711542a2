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

// Lifecycle steps a testBackend records per invocation id.
const (
	stepEvaluated = 1 << iota
	stepCompleted
	stepEnded
)

// testBackend is a TraceBackend over a per-test evaluation function. It
// checks the lifecycle contract on every call: per invocation, at most one
// Evaluate, then exactly one Complete, then exactly one Commit or Squash.
type testBackend struct {
	t        *testing.T
	eval     func(in TraceInput) TraceResult
	steps    map[uint64]int
	evals    int
	commits  int
	squashes []SquashKind
	// blockNext denies the next injection after a squash, like the real
	// framework's block-once rule (otherwise an exiting final iteration
	// would re-inject forever).
	blockNext bool
}

// newTestTrace returns tr backed by a testBackend running eval.
func newTestTrace(t *testing.T, tr TraceInject, eval func(in TraceInput) TraceResult) (*TraceInject, *testBackend) {
	b := &testBackend{t: t, eval: eval, steps: make(map[uint64]int)}
	tr.Backend = b
	return &tr, b
}

func (b *testBackend) Evaluate(id uint64, in TraceInput) TraceResult {
	if b.steps[id] != 0 {
		b.t.Errorf("invocation %d: Evaluate after steps %03b", id, b.steps[id])
	}
	b.steps[id] |= stepEvaluated
	b.evals++
	return b.eval(in)
}

func (b *testBackend) Complete(id uint64) {
	if b.steps[id]&^stepEvaluated != 0 {
		b.t.Errorf("invocation %d: Complete after steps %03b", id, b.steps[id])
	}
	b.steps[id] |= stepCompleted
}

func (b *testBackend) Commit(id uint64, res *TraceResult) {
	if b.steps[id] != stepEvaluated|stepCompleted || res == nil {
		b.t.Errorf("invocation %d: Commit after steps %03b", id, b.steps[id])
	}
	b.steps[id] |= stepEnded
	b.commits++
}

func (b *testBackend) Squash(id uint64, kind SquashKind, res *TraceResult) {
	if s := b.steps[id]; s&^stepEvaluated != stepCompleted || (s&stepEvaluated != 0) != (res != nil) {
		b.t.Errorf("invocation %d: Squash(res set %v) after steps %03b", id, res != nil, s)
	}
	b.steps[id] |= stepEnded
	b.squashes = append(b.squashes, kind)
	b.blockNext = true
}

// checkEnded requires every one of the injected invocations, ids 1 to n, to
// have ended exactly once.
func (b *testBackend) checkEnded(n int) {
	b.t.Helper()
	for id := uint64(1); id <= uint64(n); id++ {
		if b.steps[id]&stepEnded == 0 {
			b.t.Errorf("invocation %d never committed or squashed (steps %03b)", id, b.steps[id])
		}
	}
	if b.commits+len(b.squashes) != n {
		b.t.Errorf("accounting: injected %d != commits %d + squashes %d", n, b.commits, len(b.squashes))
	}
}

// injectAtBackedge returns hooks that inject tr whenever fetch reaches pc,
// bounded by maxInjects, numbering invocations from 1. tr's backend must be
// a testBackend, whose block-once flag they honour.
func injectAtBackedge(pc int, tr *TraceInject, maxInjects int) (Hooks, *int) {
	b := tr.Backend.(*testBackend)
	count := new(int)
	return Hooks{
		BeforeFetch: func(fetchPC int) (*TraceInject, uint64) {
			if fetchPC != pc || *count >= maxInjects {
				return nil, 0
			}
			if b.blockNext {
				b.blockNext = false
				return nil, 0
			}
			*count++
			return tr, uint64(*count)
		},
	}, count
}

// oneIterInject builds a fat atomic instruction equivalent to one loop
// iteration of sumLoop starting at the backedge (pc 5): blt taken, then
// add/addi. Live-ins r1, r2, r3; live-outs r1, r3.
func oneIterInject(t *testing.T) (*TraceInject, *testBackend) {
	return newTestTrace(t, TraceInject{
		StartPC:  5,
		ExitPC:   5,
		LiveIns:  []isa.Reg{isa.R(1), isa.R(2), isa.R(3)},
		LiveOuts: []isa.Reg{isa.R(3), isa.R(1)},
		PredDirs: []bool{true},
	}, oneIterEval)
}

// oneIterEval evaluates oneIterInject's iteration.
func oneIterEval(in TraceInput) TraceResult {
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

func TestTraceInjectCommitsAtomically(t *testing.T) {
	const n = 40
	p := sumLoop(n)
	cpu := New(DefaultConfig(), p, mem.New(), nil)
	tr, b := oneIterInject(t)
	hooks, injected := injectAtBackedge(5, tr, 1<<30)
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
	if *injected == 0 || b.evals == 0 || b.commits == 0 {
		t.Errorf("inject/eval/commit = %d/%d/%d, want all > 0", *injected, b.evals, b.commits)
	}
	b.checkEnded(*injected)
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
	tr, b := oneIterInject(t)
	hooks, injected := injectAtBackedge(5, tr, 1<<30)
	cpu.SetHooks(hooks)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
		t.Errorf("r3 = %d, want %d", got, n*(n-1)/2)
	}
	foundExit := false
	for _, k := range b.squashes {
		if k == SquashBranchExit {
			foundExit = true
		}
	}
	if !foundExit {
		t.Errorf("no branch-exit squash recorded (kinds %v)", b.squashes)
	}
	b.checkEnded(*injected)
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
func storeIterInject(t *testing.T) (*TraceInject, *testBackend) {
	return newTestTrace(t, TraceInject{
		StartPC:  4,
		ExitPC:   4,
		LiveIns:  []isa.Reg{isa.R(1), isa.R(2), isa.R(4)},
		LiveOuts: []isa.Reg{isa.R(4), isa.R(1)},
		PredDirs: []bool{true},
		StorePCs: []int{1},
	}, func(in TraceInput) TraceResult {
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
	})
}

func TestTraceInjectStoresApplyAtCommit(t *testing.T) {
	const n = 24
	p := storeLoop(n)
	m := mem.New()
	cpu := New(DefaultConfig(), p, m, nil)
	tr, b := storeIterInject(t)
	hooks, injected := injectAtBackedge(4, tr, 1<<30)
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
	b.checkEnded(*injected)
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
	tr, be := newTestTrace(t, TraceInject{
		StartPC: 2, ExitPC: 2,
		LiveIns:  []isa.Reg{isa.R(1), isa.R(2)},
		LiveOuts: []isa.Reg{},
	}, func(in TraceInput) TraceResult {
		return TraceResult{
			ExitMatches:  true,
			ActualExitPC: 2,
			Stores:       []StoreRecord{{PC: 99, Addr: in.LiveIns[1], Value: 777}},
			LiveOuts:     []uint64{},
			Latency:      6,
			Ops:          1,
		}
	})
	hooks, injected := injectAtBackedge(2, tr, 1)
	cpu.SetHooks(hooks)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	be.checkEnded(*injected)
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
	tr, b := oneIterInject(t)
	// Long tail latency, early live-outs: pipelining should hide the tail.
	b.eval = func(in TraceInput) TraceResult {
		res := oneIterEval(in)
		if res.ExitMatches {
			res.Latency = 30
			res.LiveOutDelay = []int{2, 2}
		}
		return res
	}
	hooks, injected := injectAtBackedge(5, tr, 1<<30)
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
