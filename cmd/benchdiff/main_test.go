package main

import (
	"bytes"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: dynaspam
BenchmarkCPUStep-2            	  600000	      2000 ns/op	       0 B/op	       0 allocs/op
BenchmarkPipeline-2           	      30	  40000000 ns/op	     34227 cycles/run	 1744398 B/op	    1971 allocs/op
BenchmarkPipeline-2           	      30	  90000000 ns/op	     34227 cycles/run	 1744398 B/op	    1971 allocs/op
BenchmarkPipeline-2           	      30	  41000000 ns/op	     34227 cycles/run	 1744398 B/op	    1975 allocs/op
BenchmarkPipeline-2           	      30	  39000000 ns/op	     34227 cycles/run	 1744398 B/op	    1971 allocs/op
BenchmarkPipeline-2           	      30	  42000000 ns/op	     34227 cycles/run	 1744398 B/op	    1971 allocs/op
PASS
ok  	dynaspam	11.072s
`

func parse(t *testing.T, text string) map[string][]result {
	t.Helper()
	got, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseGroupsRepeatedLines(t *testing.T) {
	got := parse(t, benchOutput)
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if n := len(got["BenchmarkCPUStep"]); n != 1 {
		t.Errorf("BenchmarkCPUStep: %d runs, want 1", n)
	}
	runs := got["BenchmarkPipeline"]
	if len(runs) != 5 {
		t.Fatalf("BenchmarkPipeline: %d runs, want 5", len(runs))
	}
	if runs[1].NsPerOp != 90000000 || runs[2].AllocsPerOp != 1975 {
		t.Errorf("runs out of input order: %+v", runs)
	}
}

func TestFoldMedianNsMaxAllocs(t *testing.T) {
	got := parse(t, benchOutput)
	if r := fold(got["BenchmarkCPUStep"]); r != (result{NsPerOp: 2000, AllocsPerOp: 0}) {
		t.Errorf("single run folds to %+v", r)
	}
	// The 90 ms outlier does not move the median; the one run with more
	// allocations sets the maximum.
	if r := fold(got["BenchmarkPipeline"]); r != (result{NsPerOp: 41000000, AllocsPerOp: 1975}) {
		t.Errorf("repeated runs fold to %+v, want median 41000000 ns/op, max 1975 allocs/op", r)
	}
	even := []result{{NsPerOp: 10}, {NsPerOp: 40}, {NsPerOp: 20}, {NsPerOp: 30}}
	if r := fold(even); r.NsPerOp != 25 {
		t.Errorf("even count median = %v, want 25", r.NsPerOp)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]result{
		"BenchmarkCPUStep":  {NsPerOp: 1900, AllocsPerOp: 0},
		"BenchmarkPipeline": {NsPerOp: 40000000, AllocsPerOp: 1975},
	}
	got := parse(t, benchOutput)
	var out bytes.Buffer
	if n := compare(&out, base, got, 0.10); n != 0 {
		t.Fatalf("%d failures, want 0:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "[5 runs, ns/op 39000000.0..90000000.0]") {
		t.Errorf("report lacks the repeat spread:\n%s", out.String())
	}

	// Any allocs/op growth fails, whichever run shows it.
	base["BenchmarkPipeline"] = result{NsPerOp: 40000000, AllocsPerOp: 1971}
	out.Reset()
	if n := compare(&out, base, got, 0.10); n != 1 || !strings.Contains(out.String(), "allocs/op 1971 -> 1975") {
		t.Errorf("allocs growth: %d failures, want 1:\n%s", n, out.String())
	}

	// A median beyond the tolerance fails.
	base["BenchmarkPipeline"] = result{NsPerOp: 35000000, AllocsPerOp: 1975}
	out.Reset()
	if n := compare(&out, base, got, 0.10); n != 1 || !strings.Contains(out.String(), "FAIL     BenchmarkPipeline") {
		t.Errorf("ns/op growth: %d failures, want 1:\n%s", n, out.String())
	}
}

func TestCompareMissingAndNew(t *testing.T) {
	base := map[string]result{
		"BenchmarkCPUStep": {NsPerOp: 2000},
		"BenchmarkGone":    {NsPerOp: 100},
	}
	got := parse(t, benchOutput)
	var out bytes.Buffer
	if n := compare(&out, base, got, 0.10); n != 1 {
		t.Errorf("%d failures, want 1 (the missing benchmark):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "MISSING  BenchmarkGone") {
		t.Errorf("missing benchmark not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NEW      BenchmarkPipeline") || !strings.Contains(out.String(), "ns/op 41000000.0, allocs/op 1975") {
		t.Errorf("new benchmark not reported folded:\n%s", out.String())
	}
}
