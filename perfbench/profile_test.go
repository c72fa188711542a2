package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"dynaspam/internal/core"
	"dynaspam/internal/workloads"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dynaspam/internal/ooo.(*CPU).issue":                "ooo",
		"dynaspam/internal/core.(*System).walkTrace":        "core",
		"dynaspam/internal/cache.(*Hierarchy).AccessData":   "cache",
		"dynaspam/internal/cfgcache.(*Cache).Lookup":        "cfgcache",
		"dynaspam/internal/interp.(*Interp).Step":           "interp",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"runtime/internal/atomic.Load":                      "runtime",
		"dynaspam/internal/jobs.(*Plane).Submit":            "jobs",
		"net/http.(*conn).serve":                            "jobs",
		"syscall.Syscall6":                                  "jobs",
		"dynaspam/internal/memdep.(*Predictor).Lookup":      "other",
		"dynaspam/internal/workloads.(*Workload).NewMemory": "other",
		"sort.Slice":      "other",
		"netip.ParseAddr": "other", // not net/
		"main.main":       "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(num int, v uint64) { b.varint(uint64(num)<<3 | 0); b.varint(v) }

func (b *pb) bytesField(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) packed(num int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytesField(num, inner.Bytes())
}

// syntheticProfile encodes a profile with three functions: ooo (60 ms),
// a runtime function inlined into core code (30 ms, so the leaf is
// runtime), and interp (10 ms). Samples mix packed and unpacked encodings.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	var p pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"dynaspam/internal/ooo.(*CPU).Step", "runtime.memmove",
		"dynaspam/internal/core.(*System).walkTrace", "dynaspam/internal/interp.(*Interp).Step"}
	for fn, name := range []int{5, 6, 7, 8} {
		var f pb
		f.uint(1, uint64(fn+1))
		f.uint(2, uint64(name))
		p.bytesField(5, f.Bytes())
	}
	line := func(fn uint64) []byte { var l pb; l.uint(1, fn); return l.Bytes() }
	for _, loc := range []struct {
		id    uint64
		lines []uint64
	}{{1, []uint64{1}}, {2, []uint64{2, 3}}, {3, []uint64{4}}} {
		var l pb
		l.uint(1, loc.id)
		for _, fn := range loc.lines {
			l.bytesField(4, line(fn))
		}
		p.bytesField(4, l.Bytes())
	}
	var s1 pb // packed: leaf ooo, caller core
	s1.packed(1, 1, 2)
	s1.packed(2, 6, 60e6)
	p.bytesField(2, s1.Bytes())
	var s2 pb // unpacked: leaf is the inlined runtime frame
	s2.uint(1, 2)
	s2.uint(2, 3)
	s2.uint(2, 30e6)
	p.bytesField(2, s2.Bytes())
	var s3 pb
	s3.packed(1, 3)
	s3.packed(2, 1, 10e6)
	p.bytesField(2, s3.Bytes())
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfileChargesLeafFrames(t *testing.T) {
	shares, cpu, err := foldProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cpu-0.1) > 1e-12 {
		t.Errorf("cpu = %v s, want 0.1", cpu)
	}
	want := map[string]float64{"ooo": 0.6, "runtime": 0.3, "interp": 0.1}
	sum := 0.0
	for _, l := range hostLayers {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
		}
		sum += shares[l]
	}
	if len(shares) != len(hostLayers) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v: %d layers summing to %v, want %d summing to 1", shares, len(shares), sum, len(hostLayers))
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("foldProfile accepted non-gzip input")
	}
	good := syntheticProfile(t)
	if _, _, err := foldProfile(good[:len(good)/2]); err == nil {
		t.Error("foldProfile accepted a truncated profile")
	}
}

// TestFoldRealProfile folds a CPU profile the Go runtime wrote while the
// simulator ran, so the decoder is checked against the real encoder.
func TestFoldRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a simulation")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	w := workloads.KNN()
	p := core.DefaultParams()
	p.Mode = core.ModeBaseline
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if err := core.New(p, w.Prog, w.NewMemory()).Run(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, cpu, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Fatalf("no CPU samples in a 500 ms busy profile")
	}
	if shares["ooo"] < 0.2 {
		t.Errorf("ooo share %.3f of a baseline simulation, want the largest part", shares["ooo"])
	}
}
