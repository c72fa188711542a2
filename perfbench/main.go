// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every simulated result against the golden
// reference, and prints its metrics, one per line with its unit, then
// one JSON object as the last line of standard output:
//
//	perfbench -workload fig8-full -seed 1 -seconds 20 -trace 0
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1 is
// the separate traced run that gives the per-layer metrics. The exit code
// is non-zero when any output is wrong. perfbench/run.py builds this
// program and the dynaspam CLI from source and runs it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// dynaspam is the CLI binary jobs-mixed serves; out is a scratch
	// directory for server state, logs and the traced run's span file.
	dynaspam string
	out      string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	m                 map[string]float64
	notes             []string // human-readable context printed with the metrics
	errs              []string // failed operations, printed to stderr
	spans             *tracer  // traced runs: spans written out at the end
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// timings records a latency sample set as <prefix>_p50_s and
// <prefix>_tail_s, noting the tail's percentile and the sample count.
func (o *outcome) timings(prefix string, xs []float64) {
	o.m[prefix+"_p50_s"] = median(xs)
	v, pct, ok := tail(xs)
	o.m[prefix+"_tail_s"] = v
	if ok {
		o.notef("%s_tail_s is p%.1f of %d samples (%d beyond it)", prefix, pct, len(xs), tailBeyond)
	} else {
		o.notef("%s_tail_s is the maximum of only %d samples", prefix, len(xs))
	}
}

var workloadNames = []string{"fig8-full", "scaled-sampled", "jobs-mixed"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
		seed     = fs.Int64("seed", 1, "seed for the cell order and the jobs-mixed spec sequence")
		secs     = fs.Int("seconds", 20, "seconds of measurement")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		dynaspam = fs.String("dynaspam", "", "dynaspam CLI binary (jobs-mixed serves it)")
		out      = fs.String("out", "", "scratch directory for server state, logs and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) || *out == "" {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1, -trace 0|1 and -out")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, duration: time.Duration(*secs) * time.Second,
		trace: *trace == 1, dynaspam: *dynaspam, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	ctx := context.Background()
	var o *outcome
	var err error
	switch cfg.workload {
	case "fig8-full", "scaled-sampled":
		o, err = runInProcess(ctx, cfg)
	case "jobs-mixed":
		o, err = runJobsMixed(ctx, cfg)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(cfg, o, stdout, stderr)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run's metrics and result line, writes the span file
// of a traced run, and returns the exit code.
func report(cfg config, o *outcome, stdout, stderr io.Writer) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	fmt.Fprintf(stdout, "workload %s seed %d: %d attempted, %d failed (%.2f%%)\n",
		cfg.workload, cfg.seed, o.attempted, o.failed, 100*float64(o.failed)/float64(max(o.attempted, 1)))
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, d := range defs {
		// A failed run may stop before measuring everything; what it
		// missed reads 0.
		v, ok := o.m[d.name]
		if !ok && o.failed == 0 {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, e := range o.errs {
		fmt.Fprintln(stderr, "perfbench: FAILED:", e)
	}
	if o.spans != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := o.spans.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintln(stdout, "  spans written to", path)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
