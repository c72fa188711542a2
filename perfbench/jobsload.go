package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynaspam/internal/cpistack"
	"dynaspam/internal/jobs"
	"dynaspam/internal/runner"
	"dynaspam/internal/stats"
	"dynaspam/internal/workloads"
)

// jobs-mixed drives `dynaspam serve` over HTTP with a closed loop of
// clients, one in-flight job each. It uses only POST /jobs, GET
// /jobs/{id}, /events, /metrics, /healthz and /debug/pprof.
const (
	mixClients = 2
	// jobTimeout bounds one job's submit-to-done time; a job that takes
	// longer counts as failed.
	jobTimeout = 60 * time.Second
	// modelPrefix is how many fresh jobs per client the model.* and
	// cpistack.* values of jobs-mixed sum over: a seed-determined set that
	// every run completes, so the values repeat exactly.
	modelPrefix = 8
	// serverSetups is how many times jobs-mixed starts a server in set-up;
	// setup_s is the median.
	serverSetups = 5
	// rssAtJobs is how many finished jobs the server's peak RSS is read
	// after. The server keeps every job's record, so its memory grows with
	// the jobs served; reading it at a fixed count keeps peak_rss_mb from
	// following throughput.
	rssAtJobs = 400
)

// serverArgs runs every job on one worker and admits one job per client,
// so a cached job never queues behind a fresh one.
var serverArgs = []string{"-j", "1", "-max-jobs", strconv.Itoa(mixClients)}

// server is a running `dynaspam serve` process.
type server struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	logs     chan struct{}
	log      *os.File
	stopOnce sync.Once
}

var listenRE = regexp.MustCompile(`msg="telemetry listening".* addr=(\S+)`)

// startServer starts the CLI's serve mode on a loopback port with an
// empty state directory and returns once /healthz answers, with the time
// that took.
func startServer(bin, dir string) (*server, time.Duration, error) {
	state := filepath.Join(dir, "state")
	if err := os.RemoveAll(state); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0", "-state", state}, serverArgs...)...)
	// The server must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s serve: %w", bin, err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{}), log: logf}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logs:
		s.stop()
		return nil, 0, fmt.Errorf("dynaspam serve exited before listening; see %s", logf.Name())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("dynaspam serve did not start listening within 30 s")
	}
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("/healthz did not answer 200 within 30 s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the server (SIGTERM, then SIGKILL after a grace period)
// and waits for it and its log copier to end. Calls after the first are
// no-ops.
func (s *server) stop() {
	s.stopOnce.Do(s.terminate)
}

func (s *server) terminate() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-s.logs
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.log.Close()
}

// eventHub follows the server's /events stream and hands each job's run
// entries and sweep_end marker to whoever waits for that job.
type eventHub struct {
	mu      sync.Mutex
	watches map[string]*watch
	err     error
	closed  chan struct{}
}

type watch struct {
	runs  []runner.Entry
	done  chan struct{} // closed on the job's sweep_end
	ended bool
}

func (h *eventHub) get(id string) *watch {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.watches[id]
	if w == nil {
		w = &watch{done: make(chan struct{})}
		h.watches[id] = w
	}
	return w
}

// follow reads Server-Sent Events until the stream ends.
func (h *eventHub) follow(body io.Reader) {
	defer close(h.closed)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "run":
				var e runner.Entry
				if err := json.Unmarshal(data, &e); err != nil {
					h.fail(fmt.Errorf("/events run: %w", err))
					continue
				}
				w := h.get(e.Sweep)
				h.mu.Lock()
				w.runs = append(w.runs, e)
				h.mu.Unlock()
			case "sweep_end":
				var e struct{ Sweep string }
				if err := json.Unmarshal(data, &e); err != nil {
					h.fail(fmt.Errorf("/events sweep_end: %w", err))
					continue
				}
				w := h.get(e.Sweep)
				h.mu.Lock()
				if !w.ended {
					w.ended = true
					close(w.done)
				}
				h.mu.Unlock()
			}
		}
	}
	if err := sc.Err(); err != nil {
		h.fail(err)
	}
}

func (h *eventHub) fail(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.mu.Unlock()
}

// jobResult is one closed-loop submission's outcome.
type jobResult struct {
	client, index int
	fresh         bool
	turnaround    time.Duration
	submit, get   time.Duration
	cells         []runner.Entry // the run entries from /events
	err           string
}

// loopStats is one closed-loop session against one server.
type loopStats struct {
	results []jobResult
	wall    time.Duration
	// peakRSSMB is the server's peak RSS once rssAtJobs jobs finished, or
	// at the end of the loop if fewer did (rssJobs says how many).
	peakRSSMB float64
	rssJobs   int
}

// loop runs mixClients closed-loop clients against s until d has elapsed,
// each walking its own seeded sequence. Every job is checked: it must end
// done, fresh cells must be simulated and verified, and cached cells must
// come from the memo cache with the results of the original run.
func loop(ctx context.Context, s *server, seqs [][]mixJob, d time.Duration, tr *tracer) (loopStats, error) {
	evCtx, stopEvents := context.WithCancel(ctx)
	defer stopEvents()
	req, err := http.NewRequestWithContext(evCtx, http.MethodGet, s.base+"/events", nil)
	if err != nil {
		return loopStats{}, err
	}
	evResp, err := http.DefaultClient.Do(req)
	if err != nil {
		return loopStats{}, fmt.Errorf("GET /events: %w", err)
	}
	hub := &eventHub{watches: map[string]*watch{}, closed: make(chan struct{})}
	go hub.follow(evResp.Body)
	defer func() {
		stopEvents()
		evResp.Body.Close()
		<-hub.closed
	}()

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients}}
	defer client.CloseIdleConnections()
	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]jobResult, len(seqs))
	var (
		rssMu     sync.Mutex
		finished  int
		rss       float64
		rssErr    error
		rssJobs   int
		rssLoaded bool
	)
	readRSS := func() {
		rss, rssErr = peakRSSMB(s.cmd.Process.Pid)
		rssJobs, rssLoaded = finished, true
	}
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := map[string][]runner.Entry{} // fresh cell key → its run entries
			for i, j := range seqs[c] {
				if time.Now().After(deadline) || ctx.Err() != nil {
					return
				}
				r := runJob(ctx, client, s.base, hub, j, tr)
				r.client, r.index = c, i
				if r.err == "" {
					k := cellKey(j.Spec)
					if j.Fresh {
						first[k] = r.cells
					} else if msg := sameCells(first[k], r.cells); msg != "" {
						r.err = msg
					}
				}
				perClient[c] = append(perClient[c], r)
				rssMu.Lock()
				if finished++; finished == rssAtJobs {
					readRSS()
				}
				rssMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ls := loopStats{wall: time.Since(start)}
	if !rssLoaded {
		readRSS()
	}
	if rssErr != nil {
		return ls, rssErr
	}
	ls.peakRSSMB, ls.rssJobs = rss, rssJobs
	for _, rs := range perClient {
		ls.results = append(ls.results, rs...)
	}
	hub.mu.Lock()
	err = hub.err
	hub.mu.Unlock()
	return ls, err
}

// sameCells compares the journal entries of two runs of the same cells
// (a cached job and its original, or the same job in the untraced and
// traced halves) and describes the first simulated result that differs.
func sameCells(first, again []runner.Entry) string {
	if len(first) != len(again) {
		return fmt.Sprintf("%d cells, the first run had %d", len(again), len(first))
	}
	keys := []string{"cycles", "committed", "energy_pj", "verified"}
	for _, c := range cpistack.Causes() {
		keys = append(keys, "cpi_"+c.String())
	}
	for i := range first {
		for _, k := range keys {
			if first[i].Metrics[k] != again[i].Metrics[k] {
				return fmt.Sprintf("cell %s: %s = %v, first run %v", again[i].Label, k, again[i].Metrics[k], first[i].Metrics[k])
			}
		}
	}
	return ""
}

// runJob submits one spec and waits for its sweep_end on /events, then
// confirms the terminal state with GET /jobs/{id}.
func runJob(ctx context.Context, client *http.Client, base string, hub *eventHub, j mixJob, tr *tracer) jobResult {
	r := jobResult{fresh: j.Fresh}
	trace := tr.newTrace()
	root := tr.start("job", trace, -1)
	defer tr.end(root)
	fail := func(format string, args ...any) jobResult {
		r.err = fmt.Sprintf("%s: ", cellKey(j.Spec)) + fmt.Sprintf(format, args...)
		return r
	}

	body, err := json.Marshal(j.Spec)
	if err != nil {
		return fail("%v", err)
	}
	t0 := time.Now()
	sp := tr.start("POST /jobs", trace, root)
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		return fail("POST /jobs: %v", err)
	}
	var sub struct{ ID string }
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tr.end(sp)
	r.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || derr != nil || sub.ID == "" {
		return fail("POST /jobs: status %d, decode error %v", resp.StatusCode, derr)
	}

	w := hub.get(sub.ID)
	sp = tr.start("wait sweep_end", trace, root)
	select {
	case <-w.done:
	case <-hub.closed:
		tr.end(sp)
		return fail("/events stream ended before job %s finished", sub.ID)
	case <-time.After(jobTimeout):
		tr.end(sp)
		return fail("job %s did not finish within %v", sub.ID, jobTimeout)
	case <-ctx.Done():
		tr.end(sp)
		return fail("%v", ctx.Err())
	}
	tr.end(sp)

	// The runner announces sweep_end just before the plane closes the
	// job's journal and records its terminal state, so the confirming GET
	// can still see "running"; retry briefly with a growing backoff.
	var v jobs.View
	backoff := 100 * time.Microsecond
	for {
		g0 := time.Now()
		sp = tr.start("GET /jobs/{id}", trace, root)
		resp, err := client.Get(base + "/jobs/" + sub.ID)
		if err != nil {
			tr.end(sp)
			return fail("GET /jobs/%s: %v", sub.ID, err)
		}
		derr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		tr.end(sp)
		r.get += time.Since(g0)
		if resp.StatusCode != http.StatusOK || derr != nil {
			return fail("GET /jobs/%s: status %d, decode error %v", sub.ID, resp.StatusCode, derr)
		}
		if v.State != jobs.StateRunning && v.State != jobs.StateQueued {
			break
		}
		if time.Since(t0) > jobTimeout {
			return fail("job %s still %s after %v", sub.ID, v.State, jobTimeout)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	r.turnaround = time.Since(t0)

	hub.mu.Lock()
	r.cells = append([]runner.Entry(nil), w.runs...)
	hub.mu.Unlock()
	wantSource := jobs.SourceRun
	if !j.Fresh {
		wantSource = jobs.SourceCache
	}
	switch {
	case v.State != jobs.StateDone:
		return fail("job %s ended %s: %s", sub.ID, v.State, v.Error)
	case v.Failed != 0 || v.Total != 1 || len(v.Cells) != 1 || len(r.cells) != 1:
		return fail("job %s: %d cells, %d failed, %d run events; want 1 cell", sub.ID, v.Total, v.Failed, len(r.cells))
	case v.Cells[0].Status != runner.StatusOK || r.cells[0].Status != runner.StatusOK:
		return fail("job %s: cell status %q", sub.ID, v.Cells[0].Status)
	case v.Cells[0].Source != wantSource:
		return fail("job %s: cell source %q, want %q", sub.ID, v.Cells[0].Source, wantSource)
	case r.cells[0].Metrics["verified"] != 1:
		return fail("job %s: cell not verified against the golden reference", sub.ID)
	}
	return r
}

// mixSummary turns a loop's results into metrics and failure counts.
type mixSummary struct {
	attempted, failed   int
	fresh, cached       []float64 // turnaround seconds
	submits, gets       []float64
	freshCellWall       []float64
	freshInsts          float64
	jobsPerS, minstPerS float64
	errs                []string
}

func summarize(ls loopStats) mixSummary {
	var s mixSummary
	for _, r := range ls.results {
		s.attempted++
		if r.err != "" {
			s.failed++
			s.errs = append(s.errs, r.err)
			continue
		}
		s.submits = append(s.submits, r.submit.Seconds())
		s.gets = append(s.gets, r.get.Seconds())
		if !r.fresh {
			s.cached = append(s.cached, r.turnaround.Seconds())
			continue
		}
		s.fresh = append(s.fresh, r.turnaround.Seconds())
		for _, e := range r.cells {
			s.freshInsts += e.Metrics["sim_ff_insts"] + e.Metrics["sim_detail_insts"]
			s.freshCellWall = append(s.freshCellWall, e.WallMS/1e3)
		}
	}
	done := float64(s.attempted - s.failed)
	s.jobsPerS = done / ls.wall.Seconds()
	s.minstPerS = s.freshInsts / 1e6 / ls.wall.Seconds()
	return s
}

// mixModel sums the simulated results of the first modelPrefix fresh
// jobs of each client.
func mixModel(ls loopStats) (map[string]float64, bool) {
	var cycles, committed float64
	cpi := make(map[string]float64)
	taken := make([]int, mixClients)
	for _, r := range ls.results {
		if !r.fresh || r.err != "" || taken[r.client] >= modelPrefix {
			continue
		}
		taken[r.client]++
		for _, e := range r.cells {
			cycles += e.Metrics["cycles"]
			committed += e.Metrics["committed"]
			for _, c := range cpistack.Causes() {
				cpi[c.String()] += e.Metrics["cpi_"+c.String()]
			}
		}
	}
	for _, n := range taken {
		if n < modelPrefix {
			return nil, false
		}
	}
	m := map[string]float64{
		"model.cycles": cycles, "model.ipc": stats.Ratio(committed, cycles),
		"model.speedup_geomean": 0, "model.energy_reduction_geomean": 0,
	}
	for k, v := range cpi {
		m["cpistack."+k] = v
	}
	return m, true
}

func runJobsMixed(ctx context.Context, cfg config) (*outcome, error) {
	if cfg.dynaspam == "" {
		return nil, errors.New("jobs-mixed needs -dynaspam, the CLI binary to serve")
	}
	dir, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("jobs-mixed-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: build the workload list and the job mix, and bring a server
	// up from an empty state directory; repeated, the last server stays.
	var setups []float64
	var srv *server
	var seqs [][]mixJob
	for i := 0; i < serverSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var kernels []string
		for _, w := range workloads.All() {
			kernels = append(kernels, w.Abbrev)
		}
		seqs = jobMix(cfg.seed, mixClients, kernels)
		if srv, _, err = startServer(cfg.dynaspam, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	out := &outcome{m: map[string]float64{}}
	if !cfg.trace {
		ls, err := loop(ctx, srv, seqs, cfg.duration, nil)
		if err != nil {
			return nil, err
		}
		s := summarize(ls)
		out.attempted, out.failed, out.errs = s.attempted, s.failed, s.errs
		out.m["setup_s"] = median(setups)
		out.m["peak_rss_mb"] = ls.peakRSSMB
		out.m["sim_minst_per_s"] = s.minstPerS
		out.m["jobs_per_s"] = s.jobsPerS
		out.timings("job_fresh", s.fresh)
		out.notef("%d fresh and %d cached jobs from %d clients in %.2f s; cached turnaround median %.4f s",
			len(s.fresh), len(s.cached), mixClients, ls.wall.Seconds(), median(s.cached))
		out.notef("peak_rss_mb read after %d finished jobs", ls.rssJobs)
		return out, nil
	}
	return out, tracedMix(ctx, cfg, dir, srv, seqs, out)
}
