package probe

import (
	"sort"
	"strconv"
	"strings"
)

// Registry unifies counters, gauges and fixed-bucket histograms for one
// simulation. Counters and gauges are created on first use; histograms must
// be registered with their bucket bounds up front so every run of a sweep
// shares the same shape. A Registry is not safe for concurrent use — each
// worker owns its probe — but Snapshot output is deterministic regardless
// of the order samples arrived in. Cross-worker aggregation goes through
// Export, which hands an immutable deep copy to a consumer (the telemetry
// aggregator) without breaking the single-owner contract.
//
// Metric names must match the Prometheus metric-name charset
// ([a-zA-Z_:][a-zA-Z0-9_:]*); creating a metric with any other name
// panics, so an invalid name is caught at the registration site rather
// than when an exposition endpoint later refuses to serve it.
type Registry struct {
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]float64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// ValidMetricName reports whether name fits the Prometheus metric-name
// charset: [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// mustValidName panics on a metric name outside the Prometheus charset.
// Called only when a metric is first created, so steady-state increments
// pay nothing.
func mustValidName(name string) {
	if !ValidMetricName(name) {
		panic("probe: metric name " + strconv.Quote(name) +
			" is outside the Prometheus charset [a-zA-Z_:][a-zA-Z0-9_:]*")
	}
}

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper edges
// ("le" semantics, like Prometheus); samples above the last bound land in
// the implicit overflow bucket counted only by Count/Sum.
type Histogram struct {
	// Bounds are the inclusive upper edges, strictly increasing.
	Bounds []float64
	// BucketCounts[i] counts samples <= Bounds[i] (non-cumulative).
	BucketCounts []uint64
	// Count and Sum cover every sample, including overflow.
	Count uint64
	Sum   float64
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.Count++
	h.Sum += v
	for i, b := range h.Bounds {
		if v <= b {
			h.BucketCounts[i]++
			return
		}
	}
}

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Counter adds delta to the named counter, creating it at zero first.
func (r *Registry) Counter(name string, delta float64) {
	if r == nil {
		return
	}
	if _, ok := r.counters[name]; !ok {
		mustValidName(name)
	}
	r.counters[name] += delta
}

// CounterValue returns the named counter's value (0 if absent).
func (r *Registry) CounterValue(name string) float64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// Gauge sets the named gauge to v, creating it on first set. A gauge is a
// point-in-time level (in-flight invocations, live occupancy) rather than
// an accumulating count; the last written value wins.
func (r *Registry) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	if _, ok := r.gauges[name]; !ok {
		mustValidName(name)
	}
	r.gauges[name] = v
}

// RegisterHistogram creates the named histogram with the given inclusive
// upper bucket bounds. Registering an existing name replaces it.
func (r *Registry) RegisterHistogram(name string, bounds []float64) *Histogram {
	mustValidName(name)
	h := &Histogram{Bounds: bounds, BucketCounts: make([]uint64, len(bounds))}
	r.hists[name] = h
	return h
}

// Observe adds one sample to the named histogram. Observing an unregistered
// name is a silent no-op so probe points never need registration checks.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	if h, ok := r.hists[name]; ok {
		h.Observe(v)
	}
}

// Histogram returns the named histogram (nil if unregistered).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists[name]
}

// Snapshot flattens the registry into a flat name -> value map suitable for
// a runner journal entry's Metrics field. Counters and gauges appear under
// their own name; each histogram h contributes h_count, h_sum, h_mean, and
// one h_le_<bound> entry per bucket. Keys are unique by construction, so
// the map ranges below are order-independent (each iteration writes its
// own key) and json.Marshal of the result is byte-stable.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+4*len(r.hists))
	for name, v := range r.counters {
		out[name] = v
	}
	for name, v := range r.gauges {
		out[name] = v
	}
	for _, name := range r.HistogramNames() {
		h := r.hists[name]
		out[name+"_count"] = float64(h.Count)
		out[name+"_sum"] = h.Sum
		out[name+"_mean"] = h.Mean()
		for i, b := range h.Bounds {
			out[name+"_le_"+formatBound(b)] = float64(h.BucketCounts[i])
		}
	}
	return out
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Export is an immutable deep copy of a registry's state: plain maps and
// freshly-allocated histogram copies sharing no memory with the registry.
// It is the hand-off unit between a sweep worker (which owns the registry)
// and a cross-worker consumer such as the telemetry aggregator: the worker
// exports after its cell finishes mutating, and the consumer may then read
// the Export from any goroutine.
type Export struct {
	Counters map[string]float64
	Gauges   map[string]float64
	Hists    map[string]Histogram
}

// Export deep-copies the registry. A nil registry exports empty maps so
// consumers never need a nil check.
func (r *Registry) Export() Export {
	ex := Export{
		Counters: map[string]float64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]Histogram{},
	}
	if r == nil {
		return ex
	}
	for name, v := range r.counters {
		ex.Counters[name] = v
	}
	for name, v := range r.gauges {
		ex.Gauges[name] = v
	}
	for name, h := range r.hists {
		ex.Hists[name] = Histogram{
			Bounds:       append([]float64(nil), h.Bounds...),
			BucketCounts: append([]uint64(nil), h.BucketCounts...),
			Count:        h.Count,
			Sum:          h.Sum,
		}
	}
	return ex
}

// formatBound renders a bucket bound as a metric-key suffix: integral
// bounds print without a decimal point ("16"), fractional ones with the
// point replaced ("0p5") so keys stay identifier-like.
func formatBound(b float64) string {
	s := strconv.FormatFloat(b, 'g', -1, 64)
	return strings.ReplaceAll(s, ".", "p")
}
