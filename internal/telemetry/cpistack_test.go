package telemetry

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"dynaspam/internal/core"
	"dynaspam/internal/experiments"
	"dynaspam/internal/probe"
	"dynaspam/internal/workloads"
)

// TestCPIStackRenderedOnce pins the single rendering of the
// cycle-accounting stack on /metrics: every cause appears exactly once
// under dynaspam_cpistack_cycles_total and once per job under
// dynaspam_job_cpistack_cycles_total, no per-cause dynaspam_*sim_cpi_cycles_*
// name repeats them, both families sum exactly to the simulated cycles,
// and the page lints clean.
func TestCPIStackRenderedOnce(t *testing.T) {
	tel, ts := newTestServer(t)
	params := core.DefaultParams()
	jobCycles := map[string]float64{}
	for i, abbrev := range []string{"BP", "PF"} {
		w, err := workloads.ByAbbrev(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		pr := probe.NewMetricsOnly()
		res, err := experiments.RunProbedCtx(context.Background(), w, params, pr)
		if err != nil {
			t.Fatal(err)
		}
		id := "job-00000" + strconv.Itoa(i+1)
		jobCycles[id] = float64(res.Cycles)
		tel.Aggregator().MergeJob(id, pr.Metrics().Export())
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if err := LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}

	causes := map[string]int{}        // cause -> samples in the aggregate family
	jobSamples := map[[2]string]int{} // (cause, job) -> samples in the per-job family
	jobSums := map[string]float64{}   // job -> Σ causes
	var total float64
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if strings.Contains(line, "sim_cpi_cycles_") {
			t.Errorf("per-cause counter duplicates the CPI stack: %s", line)
			continue
		}
		name, labels, rest, err := splitSample(line)
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case "dynaspam_cpistack_cycles_total":
			causes[labels["cause"]]++
			total += v
		case "dynaspam_job_cpistack_cycles_total":
			jobSamples[[2]string{labels["cause"], labels["job_id"]}]++
			jobSums[labels["job_id"]] += v
		}
	}

	if causes["base"] == 0 {
		t.Fatalf("no base cycles in the aggregate CPI stack:\n%s", body)
	}
	for c, n := range causes {
		if n != 1 {
			t.Errorf("cause %s rendered %d times in dynaspam_cpistack_cycles_total", c, n)
		}
	}
	for k, n := range jobSamples {
		if n != 1 {
			t.Errorf("cause %s of %s rendered %d times in dynaspam_job_cpistack_cycles_total", k[0], k[1], n)
		}
		if causes[k[0]] == 0 {
			t.Errorf("per-job cause %s missing from the aggregate family", k[0])
		}
	}
	var want float64
	for id, cycles := range jobCycles {
		want += cycles
		if jobSums[id] != cycles {
			t.Errorf("%s: CPI stack sums to %v, want %v cycles", id, jobSums[id], cycles)
		}
	}
	if total != want {
		t.Errorf("aggregate CPI stack sums to %v, want %v cycles", total, want)
	}
}
