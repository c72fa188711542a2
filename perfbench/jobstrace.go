package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"dynaspam/internal/stats"
)

// scrapeMetrics reads the unlabeled samples of the server's /metrics.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// tracedMix is jobs-mixed's per-layer run. The first half replays the
// untraced loop; the second half runs against a fresh server with
// client-side spans, a server CPU profile from /debug/pprof/profile and
// /metrics scraped before and after. Both halves must report identical
// simulated results for the jobs they share.
func tracedMix(ctx context.Context, cfg config, dir string, srv *server, seqs [][]mixJob, out *outcome) error {
	half := cfg.duration / 2
	untraced, err := loop(ctx, srv, seqs, half, nil)
	if err != nil {
		return err
	}
	srv.stop()
	srv2, _, err := startServer(cfg.dynaspam, dir)
	if err != nil {
		return err
	}
	defer srv2.stop()

	before, err := scrapeMetrics(srv2.base)
	if err != nil {
		return err
	}
	type profResult struct {
		data []byte
		err  error
	}
	profCh := make(chan profResult, 1)
	go func() {
		secs := max(1, int(half.Seconds()))
		resp, err := http.Get(srv2.base + "/debug/pprof/profile?seconds=" + strconv.Itoa(secs))
		if err != nil {
			profCh <- profResult{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		profCh <- profResult{b, err}
	}()
	tr := newTracer()
	traced, err := loop(ctx, srv2, seqs, half, tr)
	if err != nil {
		return err
	}
	prof := <-profCh
	if prof.err != nil {
		return fmt.Errorf("GET /debug/pprof/profile: %w", prof.err)
	}
	after, err := scrapeMetrics(srv2.base)
	if err != nil {
		return err
	}

	su, st := summarize(untraced), summarize(traced)
	out.attempted = su.attempted + st.attempted
	out.failed = su.failed + st.failed
	out.errs = append(su.errs, st.errs...)

	// Observer check: every fresh job both halves ran (same client, same
	// place in its sequence, so the same cell) must simulate identically.
	ran := map[[2]int]jobResult{}
	for _, r := range untraced.results {
		ran[[2]int{r.client, r.index}] = r
	}
	for _, r := range traced.results {
		u, ok := ran[[2]int{r.client, r.index}]
		if !ok || !r.fresh || r.err != "" || u.err != "" {
			continue
		}
		if msg := sameCells(u.cells, r.cells); msg != "" {
			out.failed++
			out.errs = append(out.errs, "observer effect: "+msg)
		}
	}
	mu, okU := mixModel(untraced)
	mt, okT := mixModel(traced)
	if !okU || !okT {
		return fmt.Errorf("jobs-mixed: each client must finish %d fresh jobs per half; raise -seconds", modelPrefix)
	}
	for k, v := range mt {
		if mu[k] != v {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("observer effect: %s = %v traced, %v untraced", k, v, mu[k]))
		}
		out.m[k] = v
	}

	m := out.m
	delta := func(name string) float64 { return after[name] - before[name] }
	m["jobs.submit_s"] = median(st.submits)
	m["jobs.http_get_s"] = median(st.gets)
	m["jobs.cell_wall_s"] = median(st.freshCellWall)
	m["jobs.cached_p50_s"] = median(st.cached)
	m["jobs.queue_wait_s"] = stats.Ratio(delta("dynaspam_job_queue_wait_seconds_sum"), delta("dynaspam_job_queue_wait_seconds_count"))
	hits, misses := delta("dynaspam_job_cache_hits_total"), delta("dynaspam_job_cache_misses_total")
	m["jobs.cache_hit_ratio"] = stats.Ratio(hits, hits+misses)
	m["runtime.gc_cycles"] = stats.Ratio(delta("go_gc_cycles_total"), float64(st.attempted-st.failed))
	m["trace_overhead_ratio"] = stats.Ratio(su.jobsPerS, st.jobsPerS)
	shares, _, err := foldProfile(prof.data)
	if err != nil {
		return err
	}
	for l, v := range shares {
		m["host."+l+"_share"] = v
	}
	// The simulator's own counters, its call timings and the runtime's
	// allocation figures live inside the server and are not visible
	// through the job API; they read 0 on this workload.
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	out.notef("untraced half: %d jobs, traced half: %d jobs; runtime.gc_cycles is per job here", su.attempted, st.attempted)
	out.spans = tr
	return nil
}
