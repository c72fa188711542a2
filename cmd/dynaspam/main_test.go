package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynaspam/internal/jobs"
	"dynaspam/internal/telemetry"
)

// runCLI invokes run with captured stdio.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestBadCPUProfilePathFailsFast locks the fail-fast contract: a broken
// -cpuprofile path must exit non-zero through a structured ERROR record
// before any simulation runs, not after a finished sweep.
func TestBadCPUProfilePathFailsFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")
	code, stdout, stderr := runCLI("-bench", "PF", "-cpuprofile", bad)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "level=ERROR") || !strings.Contains(stderr, "cpuprofile") {
		t.Errorf("stderr lacks structured cpuprofile error: %s", stderr)
	}
	if !strings.Contains(stderr, "run_id=") {
		t.Errorf("error record lacks run correlation ID: %s", stderr)
	}
	if strings.Contains(stderr, "sweep start") || stdout != "" {
		t.Errorf("simulation ran despite bad profile path\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

// TestBadMemProfilePathFailsFast: the heap profile file must open before
// the sweep, so a typo'd path cannot discard a long run's profile.
func TestBadMemProfilePathFailsFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "mem.prof")
	code, stdout, stderr := runCLI("-bench", "PF", "-memprofile", bad)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "level=ERROR") || !strings.Contains(stderr, "memprofile") {
		t.Errorf("stderr lacks structured memprofile error: %s", stderr)
	}
	if strings.Contains(stderr, "sweep start") || stdout != "" {
		t.Errorf("simulation ran despite bad profile path")
	}
}

func TestProfilesWrittenOnSuccess(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	code, _, stderr := runCLI("-bench", "PF", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestUnknownModeIsUsageError(t *testing.T) {
	code, _, stderr := runCLI("-bench", "PF", "-mode", "warp")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown mode") {
		t.Errorf("stderr = %s", stderr)
	}
}

// TestSweepWithServeExitsZero runs a real sweep with the telemetry plane
// attached on an ephemeral port: the run must finish cleanly, print the
// same stats table, and log the bound address.
func TestSweepWithServeExitsZero(t *testing.T) {
	code, stdout, stderr := runCLI("-bench", "PF,BP", "-j", "2", "-serve", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 benchmarks under accel-spec") {
		t.Errorf("summary table missing:\n%s", stdout)
	}
	if !strings.Contains(stderr, "telemetry listening") {
		t.Errorf("bound address never logged: %s", stderr)
	}
}

func TestLintMetricsSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	os.WriteFile(good, []byte("# TYPE m counter\nm 1\n"), 0o644)
	bad := filepath.Join(dir, "bad.prom")
	os.WriteFile(bad, []byte("orphan 1\n"), 0o644)

	code, stdout, _ := runCLI("lint-metrics", good)
	if code != 0 || !strings.Contains(stdout, "ok") {
		t.Errorf("lint-metrics on valid page = %d %q", code, stdout)
	}
	code, _, stderr := runCLI("lint-metrics", bad)
	if code != 1 || !strings.Contains(stderr, "lint-metrics") {
		t.Errorf("lint-metrics on invalid page = %d %q", code, stderr)
	}
	if code, _, _ := runCLI("lint-metrics", filepath.Join(dir, "missing.prom")); code != 1 {
		t.Errorf("lint-metrics on missing file = %d, want 1", code)
	}
}

func TestLintTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"traceEvents":[`+"\n"+
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"p"}}`+"\n"+
		"]}\n"), 0o644)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"traceEvents": 7}`), 0o644)

	code, stdout, _ := runCLI("lint-trace", good)
	if code != 0 || !strings.Contains(stdout, "ok") {
		t.Errorf("lint-trace on valid trace = %d %q", code, stdout)
	}
	code, _, stderr := runCLI("lint-trace", bad)
	if code != 1 || !strings.Contains(stderr, "lint-trace") {
		t.Errorf("lint-trace on invalid trace = %d %q", code, stderr)
	}
	if code, _, _ := runCLI("lint-trace", filepath.Join(dir, "missing.json")); code != 1 {
		t.Errorf("lint-trace on missing file = %d, want 1", code)
	}
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestSweepHandler drives a sweep through the serve mux's jobs API: a
// PF,BP submission over POST /jobs must land its two cells in /status and
// the aggregator and show the job done on /jobs. The retired synchronous
// /sweep endpoint must no longer be routed.
func TestSweepHandler(t *testing.T) {
	tel := telemetry.NewServer("test", discardLogger())
	defer tel.Shutdown(context.Background())
	plane, err := jobs.New(jobs.Config{
		Parallelism: 2,
		Aggregator:  tel.Aggregator(),
		Tracker:     tel.Tracker(),
		Log:         discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Shutdown(context.Background())
	plane.Mount(tel)
	ts := httptest.NewServer(tel.Handler())
	defer ts.Close()

	if resp, err := http.Post(ts.URL+"/sweep?bench=PF,BP", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("retired /sweep endpoint answered %d, want 404 or 405", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bench":"PF,BP"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("POST /jobs = %d (%v)", resp.StatusCode, err)
	}
	done, ok := plane.Done(sub.ID)
	if !ok {
		t.Fatalf("submitted job %q unknown to the plane", sub.ID)
	}
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("job %s never finished", sub.ID)
	}

	st := tel.Tracker().Status()
	if len(st.Sweeps) != 1 || st.Sweeps[0].Done != 2 {
		t.Errorf("tracker after sweep = %+v", st.Sweeps)
	}
	if tel.Aggregator().Cells() != 2 {
		t.Errorf("aggregator merged %d cells, want 2", tel.Aggregator().Cells())
	}
	jresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if !strings.Contains(string(jbody), `"state": "done"`) {
		t.Errorf("job not done on /jobs: %s", jbody)
	}
}
