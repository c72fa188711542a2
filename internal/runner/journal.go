package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Entry statuses. A sweep that finishes cleanly journals StatusOK for every
// run; StatusSkipped marks runs cancelled by an earlier failure.
const (
	StatusOK      = "ok"
	StatusError   = "error"
	StatusPanic   = "panic"
	StatusSkipped = "skipped"
)

// Entry is one journal record: a single finished (or skipped) run. Entries
// serialize as one JSON object per line, in completion order; Seq gives the
// run's position in sweep input order, so a journal can be re-sorted into
// deterministic order offline.
type Entry struct {
	// Sweep names the sweep the run belongs to (e.g. "fig8").
	Sweep string `json:"sweep,omitempty"`
	// Seq is the run's input-order index within its sweep.
	Seq int `json:"seq"`
	// Label identifies the cell, e.g. "BP/accel-spec".
	Label string `json:"label"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// WallMS is the run's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Error holds the failure message for non-ok runs.
	Error string `json:"error,omitempty"`
	// Metrics carries domain measurements (cycles, IPC, counters, golden
	// verification status, ...) provided by the result's Metricser. Keys
	// are emitted in sorted order, so entries are byte-stable.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Journal writes run records as JSON lines to an underlying writer. It is
// safe for concurrent use by the runner's workers; each Entry becomes
// exactly one line. The zero value is not usable; construct with NewJournal
// or OpenJournal.
//
// Writes are buffered at line granularity: entries accumulate in an
// internal buffer and reach the underlying writer only in whole-line
// chunks (on Flush, on Close, and automatically once the buffer passes
// journalFlushBytes). The underlying writer therefore never observes a
// partial JSON line, so a concurrent tailer — the telemetry plane's SSE
// endpoint, `tail -f` — can parse the file line-by-line without racing a
// torn write. runner.Run flushes at the end of every sweep.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte    // marshaled whole lines not yet pushed to w
	owned io.Closer // non-nil when the journal opened the file itself
	err   error     // first write error, reported by Close
	sync  bool      // flush after every entry (checkpoint mode)
}

// journalFlushBytes is the buffered-line threshold beyond which Write
// flushes automatically.
const journalFlushBytes = 8 << 10

// NewJournal returns a journal writing to w. The caller retains ownership
// of w; Close does not close it.
//
//lint:journal
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// OpenJournal creates (or truncates) the file at path and returns a journal
// writing to it. Close closes the file.
//
//lint:journal
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	return &Journal{w: f, owned: f}, nil
}

// OpenJournalAppend opens (creating if absent) the file at path in append
// mode and returns a journal writing to it. A resumed sweep uses this so
// the entries of its earlier, interrupted attempts are preserved; Close
// closes the file.
//
//lint:journal
func OpenJournalAppend(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	return &Journal{w: f, owned: f}, nil
}

// SetSync switches the journal into checkpoint mode: every Write flushes
// its line to the underlying writer immediately instead of accumulating
// until journalFlushBytes. A sweep journaled in sync mode therefore never
// loses a finished cell to a crash — the instant a cell's entry is
// written, it is on the file, and a restarted process can resume from it
// (see ReadJournal). The cost is one small write syscall per cell, which
// is noise next to a simulation cell's runtime.
func (j *Journal) SetSync(on bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sync = on
}

// Write appends one entry as a JSON line to the journal's buffer, flushing
// automatically at whole-line boundaries once journalFlushBytes accumulate.
// Marshal or write failures are sticky: the first one is remembered and
// returned from every subsequent Write and from Close, so a sweep is not
// aborted by observability I/O.
func (j *Journal) Write(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	b, err := json.Marshal(e)
	if err != nil {
		j.err = fmt.Errorf("runner: journal marshal: %w", err)
		return j.err
	}
	j.buf = append(j.buf, b...)
	j.buf = append(j.buf, '\n')
	if j.sync || len(j.buf) >= journalFlushBytes {
		return j.flushLocked()
	}
	return nil
}

// Flush pushes every buffered line to the underlying writer. Because the
// buffer only ever holds whole lines, the writer receives them in a single
// Write call and never sees a torn JSON object.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

// flushLocked drains the buffer; the caller holds mu.
func (j *Journal) flushLocked() error {
	if j.err != nil {
		return j.err
	}
	if len(j.buf) == 0 {
		return nil
	}
	if _, err := j.w.Write(j.buf); err != nil {
		j.err = fmt.Errorf("runner: journal write: %w", err)
		return j.err
	}
	j.buf = j.buf[:0]
	return nil
}

// Close flushes buffered lines, releases the underlying file if the
// journal owns one, and returns the first error encountered over the
// journal's lifetime.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.flushLocked()
	if j.owned != nil {
		if err := j.owned.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.owned = nil
	}
	return j.err
}

// ReadJournal parses a JSON-lines run journal back into its entries, in
// file (completion) order. It is the replay half of the checkpoint story:
// the jobs plane reads a crashed sweep's journal on startup and resumes at
// the first cell with no StatusOK entry.
//
// Blank lines are skipped. A malformed *final* line is tolerated and
// dropped — a process killed mid-write can leave a torn last line, and
// losing the in-flight record is exactly the semantics resume wants.
// Malformed lines anywhere earlier are real corruption and return an
// error alongside the entries parsed so far.
func ReadJournal(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var (
		entries []Entry
		badLine int // 1-based line number of the first malformed line
		badErr  error
	)
	n := 0
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if badErr != nil {
			// A parseable line after a malformed one: the damage was not
			// a torn tail, so it is corruption.
			return entries, fmt.Errorf("runner: journal line %d: %w", badLine, badErr)
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			badLine, badErr = n, err
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return entries, fmt.Errorf("runner: journal read: %w", err)
	}
	// badErr still set here means the malformed line was the last one:
	// treat it as a torn in-flight write and drop it silently.
	return entries, nil
}

// Completed reduces journal entries to a per-seq completion mask for a
// sweep of total cells: mask[seq] is true when some entry recorded seq
// finishing with StatusOK. Entries for other statuses (error, panic,
// skipped) leave the cell incomplete so a resume re-attempts it; entries
// with out-of-range seqs are ignored.
func Completed(entries []Entry, total int) []bool {
	mask := make([]bool, total)
	for _, e := range entries {
		if e.Status == StatusOK && e.Seq >= 0 && e.Seq < total {
			mask[e.Seq] = true
		}
	}
	return mask
}
