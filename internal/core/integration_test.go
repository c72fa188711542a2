package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/workloads"
)

// frameworkGolden pins every framework decision of a run — hot flips,
// mapping sessions and their outcomes, offloads and denials, squashes,
// disables, reconfigurations and both caches' counters — per test cell, so
// a refactor of the framework's bookkeeping that changes any decision fails
// here even when memory and commit counts still match. Regenerate with
// DYNASPAM_UPDATE_GOLDEN=1 only after an intentional behaviour change.
const frameworkGolden = "testdata/framework_stats.golden"

// fingerprint renders the framework counters of a finished run on one line.
func fingerprint(sys *System) string {
	cs := sys.CPU().Stats()
	return fmt.Sprintf("cycles=%d committed=%d core=%+v mapped=%d offloaded=%d reconfigs=%d lifetime=%v cfgcache=%+v tcache=%+v",
		cs.Cycles, cs.Committed, sys.Stats(), sys.MappedTraces(), sys.OffloadedTraces(),
		sys.Fabrics().Reconfigurations(), sys.Fabrics().AvgLifetime(),
		sys.CfgCache().Stats(), sys.TCache().Stats())
}

// readFingerprints parses the golden file into cell name → fingerprint.
func readFingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	data, err := os.ReadFile(frameworkGolden)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, fp, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("%s: malformed line %q", frameworkGolden, line)
		}
		out[name] = fp
	}
	return out
}

// checkFingerprints compares each cell in got against its golden line. With
// DYNASPAM_UPDATE_GOLDEN set it rewrites those cells' lines instead, keeping
// every other cell's.
func checkFingerprints(t *testing.T, got map[string]string) {
	t.Helper()
	want := readFingerprints(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if os.Getenv("DYNASPAM_UPDATE_GOLDEN") != "" {
		for _, name := range names {
			want[name] = got[name]
		}
		all := make([]string, 0, len(want))
		for name, fp := range want {
			all = append(all, name+": "+fp+"\n")
		}
		sort.Strings(all)
		if err := os.MkdirAll(filepath.Dir(frameworkGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frameworkGolden, []byte(strings.Join(all, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range names {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no golden fingerprint; run with DYNASPAM_UPDATE_GOLDEN=1 if the cell is new", name)
		case got[name] != w:
			t.Errorf("%s: framework fingerprint diverged from %s:\n got %s\nwant %s", name, frameworkGolden, got[name], w)
		}
	}
}

// TestAllWorkloadsAllModes is the backbone integration test: every Rodinia
// workload must produce golden-identical memory and instruction counts under
// every run mode, and framework counters identical to the golden
// fingerprints. Short mode covers a representative subset.
func TestAllWorkloadsAllModes(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:4]
	}
	modes := []Mode{ModeBaseline, ModeMappingOnly, ModeAccelNoSpec, ModeAccel}
	for _, w := range ws {
		w := w
		t.Run(w.Abbrev, func(t *testing.T) {
			golden := w.GoldenMemory()
			gold := interp.New(w.NewMemory())
			if err := gold.Run(w.Prog, w.MaxInsts); err != nil {
				t.Fatal(err)
			}
			got := make(map[string]string)
			for _, mode := range modes {
				m := w.NewMemory()
				params := DefaultParams()
				params.Mode = mode
				sys := New(params, w.Prog, m)
				if err := sys.Run(); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if err := sys.Verify(); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if eq, diff := golden.Equal(m); !eq {
					t.Fatalf("%v: memory mismatch: %s", mode, diff)
				}
				if got := sys.CPU().Stats().Committed; got != gold.DynInsts {
					t.Fatalf("%v: committed %d, interp %d", mode, got, gold.DynInsts)
				}
				got[w.Abbrev+"/"+mode.String()] = fingerprint(sys)
			}
			checkFingerprints(t, got)
		})
	}
}

// TestMultiFabricCorrectness ensures the LRU multi-fabric manager does not
// change architectural results, only reconfiguration behaviour, and that
// each fabric count's framework counters match the golden fingerprints.
func TestMultiFabricCorrectness(t *testing.T) {
	w, err := workloads.ByAbbrev("KM")
	if err != nil {
		t.Fatal(err)
	}
	golden := w.GoldenMemory()
	var reconfigs []uint64
	got := make(map[string]string)
	for _, nf := range []int{1, 2, 4} {
		m := w.NewMemory()
		params := DefaultParams()
		params.NumFabrics = nf
		sys := New(params, w.Prog, m)
		if err := sys.Run(); err != nil {
			t.Fatalf("fabrics=%d: %v", nf, err)
		}
		if eq, diff := golden.Equal(m); !eq {
			t.Fatalf("fabrics=%d: %s", nf, diff)
		}
		reconfigs = append(reconfigs, sys.Fabrics().Reconfigurations())
		got[fmt.Sprintf("KM/fabrics=%d", nf)] = fingerprint(sys)
	}
	checkFingerprints(t, got)
	// More fabrics must not increase reconfigurations.
	if reconfigs[2] > reconfigs[0] {
		t.Errorf("reconfigs grew with fabrics: %v", reconfigs)
	}
}

// TestConservativeVsSpeculativeOrdering: conservative mode may never be
// faster than speculation beyond noise, and both match golden memory.
func TestConservativeVsSpeculativeOrdering(t *testing.T) {
	w, err := workloads.ByAbbrev("NW")
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) uint64 {
		m := w.NewMemory()
		params := DefaultParams()
		params.Mode = mode
		sys := New(params, w.Prog, m)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.CPU().Stats().Cycles
	}
	spec := run(ModeAccel)
	cons := run(ModeAccelNoSpec)
	if spec > cons+cons/10 {
		t.Errorf("speculation (%d cycles) slower than conservative (%d)", spec, cons)
	}
}

func TestWalkTraceTrimsToBranchBoundary(t *testing.T) {
	w, err := workloads.ByAbbrev("NW")
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMemory()
	sys := New(DefaultParams(), w.Prog, m)
	// Train the predictor to follow every backedge (mid-loop state), then
	// inspect walks from every branch anchor.
	bp := sys.CPU().Branch()
	for pc := 0; pc < w.Prog.Len(); pc++ {
		in := w.Prog.At(pc)
		if in.Op.IsCondBranch() {
			for i := 0; i < 40; i++ {
				h := bp.History()
				bp.SpeculateHistory(true)
				bp.Update(uint64(pc), h, true, in.Target, false)
			}
		}
	}
	checked := 0
	for pc := 0; pc < w.Prog.Len(); pc++ {
		if !w.Prog.At(pc).Op.IsBranch() {
			continue
		}
		trace, _, exitPC, ok := sys.walkTrace(pc, true)
		if !ok {
			continue
		}
		checked++
		if len(trace) > sys.params.TraceLen {
			t.Errorf("pc %d: trace length %d exceeds cap", pc, len(trace))
		}
		// A trimmed trace must exit onto a branch (the next anchor)
		// whenever the body was long enough to trim.
		if len(trace) > 8 && w.Prog.Valid(exitPC) && !w.Prog.At(exitPC).Op.IsBranch() {
			// Only acceptable when no internal branch exists past
			// index 8 to cut at.
			hasCut := false
			for i := 8; i < len(trace); i++ {
				if trace[i].Inst.Op.IsBranch() {
					hasCut = true
				}
			}
			if hasCut {
				t.Errorf("pc %d: misaligned exit %d with available cut", pc, exitPC)
			}
		}
	}
	if checked == 0 {
		t.Error("no walks checked")
	}
}

// TestDisableFilterConvergesHostileTrace: a loop around a coin-flip branch
// must not run materially slower under DynaSpAM than baseline, because the
// instability filter retires its traces.
func TestDisableFilterConvergesHostileTrace(t *testing.T) {
	w, err := workloads.ByAbbrev("BT") // data-dependent descent
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) uint64 {
		m := w.NewMemory()
		params := DefaultParams()
		params.Mode = mode
		sys := New(params, w.Prog, m)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.CPU().Stats().Cycles
	}
	base := run(ModeBaseline)
	accel := run(ModeAccel)
	if float64(accel) > 1.25*float64(base) {
		t.Errorf("hostile workload: accel %d cycles vs baseline %d (>25%% slowdown)", accel, base)
	}
}
