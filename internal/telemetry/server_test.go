package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynaspam/internal/probe"
	"dynaspam/internal/runner"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	tel := NewServer("test-run", testLogger())
	ts := httptest.NewServer(tel.Handler())
	t.Cleanup(func() {
		ts.Close()
		tel.Shutdown(context.Background())
	})
	return tel, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestMetricsEndpointLintsClean(t *testing.T) {
	tel, ts := newTestServer(t)

	// Feed it realistic state: a sweep in flight plus merged sim metrics
	// with a label-hostile sweep name.
	tr := tel.Tracker()
	tr.SweepStart(`fig"8\test`, 3)
	tr.RunDone(runner.Entry{Sweep: `fig"8\test`, Seq: 0, Label: "BP/a", Status: runner.StatusOK, WallMS: 4})
	r := probe.NewRegistry()
	r.Counter("squash_branch_exit", 7)
	r.Gauge("fifo_occupancy", 2)
	r.RegisterHistogram("invoc_latency", []float64{8, 16, 32})
	r.Observe("invoc_latency", 12)
	r.Observe("invoc_latency", 1000)
	tel.Aggregator().Merge(r.Export())

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE dynaspam_run_info gauge",
		`run_id="test-run"`,
		"# TYPE dynaspam_sweep_cells gauge",
		`dynaspam_sweep_cells{sweep="fig\"8\\test"} 3`,
		`dynaspam_sweep_cells_done{sweep="fig\"8\\test"} 1`,
		`dynaspam_sweep_active{sweep="fig\"8\\test"} 1`,
		"dynaspam_cells_merged_total 1",
		"dynaspam_sim_squash_branch_exit_total 7",
		"dynaspam_sim_fifo_occupancy 2",
		"# TYPE dynaspam_sim_invoc_latency histogram",
		`dynaspam_sim_invoc_latency_bucket{le="+Inf"} 2`,
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_cycles_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStatusEndpoint(t *testing.T) {
	tel, ts := newTestServer(t)
	tr := tel.Tracker()
	tr.SweepStart("fig8", 2)
	tr.RunDone(runner.Entry{Sweep: "fig8", Seq: 1, Label: "BP/b", Status: runner.StatusOK, WallMS: 3.25})

	code, body := get(t, ts.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if st.RunID != "test-run" || len(st.Sweeps) != 1 {
		t.Fatalf("status = %+v", st)
	}
	s := st.Sweeps[0]
	if s.Name != "fig8" || s.Total != 2 || s.Done != 1 || !s.Active {
		t.Errorf("sweep = %+v", s)
	}
	if len(s.Cells) != 2 || s.Cells[1].Label != "BP/b" || s.Cells[1].WallMS != 3.25 {
		t.Errorf("cells = %+v", s.Cells)
	}
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func TestStartShutdown(t *testing.T) {
	tel := NewServer("r", testLogger())
	addr, err := tel.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz over Start listener = %d %q", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tel.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	// Shutdown is idempotent.
	if err := tel.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestStalledClientDisconnected: a client that connects and never sends
// its request headers is cut off after the header timeout, while the
// listener keeps no WriteTimeout that would end SSE streams.
func TestStalledClientDisconnected(t *testing.T) {
	tel := NewServer("r", testLogger())
	tel.headerTimeout = 100 * time.Millisecond
	addr, err := tel.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Shutdown(context.Background())
	if tel.srv.IdleTimeout != idleTimeout || tel.srv.WriteTimeout != 0 {
		t.Errorf("IdleTimeout = %v, WriteTimeout = %v; want %v and none", tel.srv.IdleTimeout, tel.srv.WriteTimeout, idleTimeout)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read on stalled connection = %v, want EOF from the server closing it", err)
	}
}

// TestSSEOrderingUnderConcurrentSweep drives a real parallel sweep through
// the runner with the tracker attached while an SSE client tails /events.
// The stream must deliver strictly ascending ids, exactly one run event
// per cell (each seq exactly once), bracketed by sweep_start/sweep_end.
func TestSSEOrderingUnderConcurrentSweep(t *testing.T) {
	tel, ts := newTestServer(t)

	req, err := http.NewRequest("GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	const cells = 24
	jobs := make([]runner.Job[int], cells)
	for i := range jobs {
		i := i
		jobs[i] = runner.Job[int]{
			Label: "cell-" + strconv.Itoa(i),
			Run:   func(context.Context) (int, error) { return i, nil },
		}
	}
	sweepDone := make(chan error, 1)
	go func() {
		_, err := runner.Run(context.Background(), runner.Options{
			Parallelism: 8,
			Name:        "sse-sweep",
			Reporter:    tel.Reporter(),
		}, jobs)
		sweepDone <- err
	}()

	// Read frames off the live stream until sweep_end.
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseFrame{}) {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
		if len(frames) > 0 && frames[len(frames)-1].event == "sweep_end" {
			break
		}
	}
	if err := <-sweepDone; err != nil {
		t.Fatal(err)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(frames) != cells+2 {
		t.Fatalf("stream delivered %d frames, want %d", len(frames), cells+2)
	}
	if frames[0].event != "sweep_start" || frames[len(frames)-1].event != "sweep_end" {
		t.Fatalf("stream not bracketed: first=%s last=%s", frames[0].event, frames[len(frames)-1].event)
	}
	prev := uint64(0)
	seqs := make(map[int]bool)
	for i, f := range frames {
		id, err := strconv.ParseUint(f.id, 10, 64)
		if err != nil {
			t.Fatalf("frame %d has bad id %q", i, f.id)
		}
		if id <= prev {
			t.Fatalf("ids not strictly ascending: %d after %d", id, prev)
		}
		prev = id
		if f.event != "run" {
			continue
		}
		var e runner.Entry
		if err := json.Unmarshal([]byte(f.data), &e); err != nil {
			t.Fatalf("run frame %d not a journal entry: %v", i, err)
		}
		if e.Status != runner.StatusOK {
			t.Errorf("cell %s status %s", e.Label, e.Status)
		}
		if seqs[e.Seq] {
			t.Errorf("seq %d delivered twice", e.Seq)
		}
		seqs[e.Seq] = true
	}
	if len(seqs) != cells {
		t.Errorf("stream delivered %d distinct seqs, want %d", len(seqs), cells)
	}
	cancel()
}

// concurrentScrape hammers url until stop closes, failing the test on any
// non-200 or lint-rejected page.
func concurrentScrape(t *testing.T, url string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("scrape %s = %d", url, resp.StatusCode)
			return
		}
		if err := LintExposition(bytes.NewReader(body)); err != nil {
			t.Errorf("scrape failed lint: %v", err)
			return
		}
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
