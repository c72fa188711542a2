package probe

import (
	"math"
	"testing"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	if got := r.CounterValue("missing"); got != 0 {
		t.Fatalf("missing counter = %v, want 0", got)
	}
	r.Counter("x", 1)
	r.Counter("x", 2)
	if got := r.CounterValue("x"); got != 3 {
		t.Fatalf("counter x = %v, want 3", got)
	}
	if cs := r.Export().Counters; len(cs) != 1 || cs["x"] != 3 {
		t.Fatalf("exported counters = %v, want only x=3", cs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.RegisterHistogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{1, 2, 2, 3, 100} {
		r.Observe("lat", v)
	}
	if h.Count != 5 {
		t.Fatalf("Count = %d, want 5", h.Count)
	}
	if h.Sum != 108 {
		t.Fatalf("Sum = %v, want 108", h.Sum)
	}
	want := []uint64{1, 2, 1} // le_1: {1}; le_2: {2,2}; le_4: {3}; 100 overflows
	for i, w := range want {
		if h.BucketCounts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.BucketCounts[i], w)
		}
	}
	if mean := h.Mean(); math.Abs(mean-21.6) > 1e-9 {
		t.Fatalf("Mean = %v, want 21.6", mean)
	}
}

func TestObserveUnregisteredIsNoop(t *testing.T) {
	r := NewRegistry()
	r.Observe("nope", 1) // must not panic
	if r.Histogram("nope") != nil {
		t.Fatal("unregistered histogram materialized")
	}
}

func TestSnapshotKeys(t *testing.T) {
	r := NewRegistry()
	r.Counter("squash_branch_exit", 2)
	r.RegisterHistogram("lat", []float64{1, 0.5})
	r.Observe("lat", 1)
	snap := r.Snapshot()
	for _, k := range []string{"squash_branch_exit", "lat_count", "lat_sum", "lat_mean", "lat_le_1", "lat_le_0p5"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing key %q (have %v)", k, snap)
		}
	}
	if snap["lat_count"] != 1 || snap["lat_mean"] != 1 {
		t.Fatalf("lat_count=%v lat_mean=%v, want 1, 1", snap["lat_count"], snap["lat_mean"])
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x", 1)
	r.Observe("x", 1)
	r.Gauge("x", 1)
	if r.CounterValue("x") != 0 || r.Snapshot() != nil || r.HistogramNames() != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must be inert")
	}
	ex := r.Export()
	if len(ex.Counters) != 0 || len(ex.Gauges) != 0 || len(ex.Hists) != 0 {
		t.Fatalf("nil registry Export = %+v, want empty maps", ex)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	if gs := r.Export().Gauges; len(gs) != 0 {
		t.Fatalf("fresh registry gauges = %v, want none", gs)
	}
	r.Gauge("occ", 3)
	r.Gauge("occ", 1) // last write wins: gauges are levels, not sums
	r.Gauge("heap", 42)
	if gs := r.Export().Gauges; len(gs) != 2 || gs["occ"] != 1 || gs["heap"] != 42 {
		t.Fatalf("exported gauges = %v, want heap:42 occ:1", gs)
	}
	snap := r.Snapshot()
	if snap["occ"] != 1 || snap["heap"] != 42 {
		t.Fatalf("snapshot gauges = occ:%v heap:%v, want 1, 42", snap["occ"], snap["heap"])
	}
}

func TestMetricNameValidation(t *testing.T) {
	valid := []string{"a", "A_b:c", "_x", ":y", "squash_branch_exit", "x9"}
	for _, name := range valid {
		if !ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = false, want true", name)
		}
	}
	invalid := []string{"", "9x", "a-b", "a.b", "a b", `a"b`, "héllo", "a\n"}
	for _, name := range invalid {
		if ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = true, want false", name)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: creating metric with invalid name did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	mustPanic("Counter", func() { r.Counter("bad-name", 1) })
	mustPanic("Gauge", func() { r.Gauge("9bad", 1) })
	mustPanic("RegisterHistogram", func() { r.RegisterHistogram("bad name", []float64{1}) })
	// Incrementing an existing counter must not re-validate or panic.
	r.Counter("good", 1)
	r.Counter("good", 1)
	if r.CounterValue("good") != 2 {
		t.Fatal("valid counter lost increments")
	}
}

func TestExportIsDeepCopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", 5)
	r.Gauge("g", 7)
	r.RegisterHistogram("h", []float64{1, 2})
	r.Observe("h", 1)
	ex := r.Export()

	// Mutating the registry after export must not change the export.
	r.Counter("c", 10)
	r.Gauge("g", 0)
	r.Observe("h", 2)
	if ex.Counters["c"] != 5 || ex.Gauges["g"] != 7 {
		t.Fatalf("export scalars mutated: %+v", ex)
	}
	h := ex.Hists["h"]
	if h.Count != 1 || h.Sum != 1 || h.BucketCounts[0] != 1 || h.BucketCounts[1] != 0 {
		t.Fatalf("export histogram mutated: %+v", h)
	}
	// And mutating the export must not touch the registry.
	h.BucketCounts[0] = 99
	if r.Histogram("h").BucketCounts[0] != 1 {
		t.Fatal("export shares bucket storage with the registry")
	}
}

func TestFormatBound(t *testing.T) {
	cases := map[float64]string{16: "16", 0.5: "0p5", 1: "1", 512: "512"}
	for in, want := range cases {
		if got := formatBound(in); got != want {
			t.Errorf("formatBound(%v) = %q, want %q", in, got, want)
		}
	}
}
