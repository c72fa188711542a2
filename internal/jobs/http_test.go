package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dynaspam/internal/telemetry"
)

// mountedPlane wires a plane into a telemetry server's mux and returns
// both plus the handler.
func mountedPlane(t *testing.T, dir string, maxJobs int) (*Plane, *telemetry.Server, http.Handler) {
	t.Helper()
	p, srv := newTestPlane(t, dir, maxJobs)
	p.Mount(srv)
	return p, srv, srv.Handler()
}

// doJSON issues a request and decodes the JSON reply into out (skipped
// when out is nil), returning the response.
func doJSON(t *testing.T, h http.Handler, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad JSON reply: %v", method, target, err)
		}
	}
	return rec
}

func TestJobsAPISubmitAndTrack(t *testing.T) {
	p, _, h := mountedPlane(t, t.TempDir(), 1)

	var acc struct {
		ID string `json:"id"`
	}
	rec := doJSON(t, h, "POST", "/jobs", `{"bench":"PF"}`, &acc)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202: %s", rec.Code, rec.Body.String())
	}
	if acc.ID == "" {
		t.Fatal("POST /jobs returned no job ID")
	}
	if loc := rec.Header().Get("Location"); loc != "/jobs/"+acc.ID {
		t.Errorf("Location = %q, want /jobs/%s", loc, acc.ID)
	}

	await(t, p, acc.ID)

	var view View
	rec = doJSON(t, h, "GET", "/jobs/"+acc.ID, "", &view)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/{id} = %d", rec.Code)
	}
	if view.State != StateDone || view.Done != 1 || len(view.Cells) != 1 {
		t.Errorf("view = %+v, want done 1/1 with one cell", view)
	}

	var list struct {
		Jobs []View `json:"jobs"`
	}
	rec = doJSON(t, h, "GET", "/jobs", "", &list)
	if rec.Code != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != acc.ID {
		t.Errorf("GET /jobs = %d with %+v", rec.Code, list.Jobs)
	}
	if len(list.Jobs[0].Cells) != 0 {
		t.Errorf("list view includes cells; summaries should omit them")
	}
}

func TestJobsAPIErrors(t *testing.T) {
	_, _, h := mountedPlane(t, "", 1)

	if rec := doJSON(t, h, "POST", "/jobs", `{"bench":`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", rec.Code)
	}
	if rec := doJSON(t, h, "POST", "/jobs", `{"bench":"NOPE"}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown bench = %d, want 400", rec.Code)
	}
	if rec := doJSON(t, h, "GET", "/jobs/job-999999", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", rec.Code)
	}
	if rec := doJSON(t, h, "DELETE", "/jobs/job-999999", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", rec.Code)
	}
}

// TestJobsAPIRejectsOversizedSpec: a POST /jobs body past maxSpecBytes
// gets 413, and nothing is queued or persisted.
func TestJobsAPIRejectsOversizedSpec(t *testing.T) {
	dir := t.TempDir()
	p, _, h := mountedPlane(t, dir, 1)

	body := `{"bench":"` + strings.Repeat("A", maxSpecBytes) + `"}`
	if rec := doJSON(t, h, "POST", "/jobs", body, nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413: %s", rec.Code, rec.Body.String())
	}
	if jobs := p.List(); len(jobs) != 0 {
		t.Errorf("oversized submission queued %d jobs", len(jobs))
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("oversized submission persisted %d files (%v)", len(ents), err)
	}

	// The limit is on the body, not on the plane: a normal spec still
	// goes through afterwards.
	if rec := doJSON(t, h, "POST", "/jobs", `{"bench":"PF"}`, nil); rec.Code != http.StatusAccepted {
		t.Errorf("POST /jobs after oversized body = %d, want 202", rec.Code)
	}
}

func TestJobsAPICancel(t *testing.T) {
	p, _, h := mountedPlane(t, t.TempDir(), 1)

	var first, second struct {
		ID string `json:"id"`
	}
	doJSON(t, h, "POST", "/jobs", `{"bench":"BP,NW,PF"}`, &first)
	doJSON(t, h, "POST", "/jobs", `{"bench":"PF"}`, &second)

	rec := doJSON(t, h, "DELETE", "/jobs/"+second.ID, "", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", rec.Code)
	}
	if v := await(t, p, second.ID); v.State != StateCancelled {
		t.Errorf("cancelled job state = %s", v.State)
	}
	if v := await(t, p, first.ID); v.State != StateDone {
		t.Errorf("first job state = %s (%s)", v.State, v.Error)
	}
}

// TestConcurrentJobsDistinctMetrics runs two jobs concurrently
// (MaxJobs=2) and checks that /metrics carries a separate job_id
// partition for each, that the page lints clean, and that the plane's
// own families are present.
func TestConcurrentJobsDistinctMetrics(t *testing.T) {
	p, _, h := mountedPlane(t, t.TempDir(), 2)

	var a, b struct {
		ID string `json:"id"`
	}
	doJSON(t, h, "POST", "/jobs", `{"bench":"BP"}`, &a)
	doJSON(t, h, "POST", "/jobs", `{"bench":"PF"}`, &b)
	if v := await(t, p, a.ID); v.State != StateDone {
		t.Fatalf("job A: %s (%s)", v.State, v.Error)
	}
	if v := await(t, p, b.ID); v.State != StateDone {
		t.Fatalf("job B: %s (%s)", v.State, v.Error)
	}

	rec := doJSON(t, h, "GET", "/metrics", "", nil)
	body := rec.Body.String()
	if err := telemetry.LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	for _, want := range []string{
		`job_id="` + a.ID + `"`,
		`job_id="` + b.ID + `"`,
		`dynaspam_jobs{state="done"} 2`,
		"dynaspam_jobs_submitted_total 2",
		"dynaspam_job_cache_misses_total 2",
		"dynaspam_job_cache_hits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Both jobs simulated distinct workloads, so their per-job base
	// cycles must differ; equal values would suggest partitions bled
	// into each other.
	var cycles []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `dynaspam_job_cpistack_cycles_total{cause="base",`) {
			cycles = append(cycles, line)
		}
	}
	if len(cycles) != 2 {
		t.Fatalf("want one per-job base-cycles sample per job, got %v", cycles)
	}
	va, vb := strings.Fields(cycles[0]), strings.Fields(cycles[1])
	if len(va) != 2 || len(vb) != 2 || va[1] == vb[1] {
		t.Errorf("per-job cycle counters identical across different workloads: %v", cycles)
	}
}

// TestDoneUnknownJob pins that the terminal-state wait channel Done()
// reports unknown IDs, and is closed once a known job finishes.
func TestDoneUnknownJob(t *testing.T) {
	p, _ := newTestPlane(t, "", 1)
	if _, ok := p.Done("job-404"); ok {
		t.Error("Done(unknown) = ok")
	}
	// And Done on a known job is closed after terminal state.
	id, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, p, id)
	done, ok := p.Done(id)
	if !ok {
		t.Fatal("Done(known) not ok")
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("done channel not closed for terminal job")
	}
}
