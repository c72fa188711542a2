package jobs

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// endpointRow matches an OPERATIONS.md table row whose first cell is an
// endpoint: `METHOD /path` or a bare `/path`.
var endpointRow = regexp.MustCompile("^\\| `((?:[A-Z]+ )?/[^`]*)` \\|")

// TestOperationsManualCoversEveryEndpoint diffs the endpoints the serve
// binary actually mounts — the telemetry plane's own handlers plus the
// jobs API — against OPERATIONS.md, in both directions. Every mux pattern
// must appear in the manual verbatim inside backticks, so adding an
// endpoint without documenting it fails CI; and every endpoint row in the
// manual must be a mounted pattern, so a deleted endpoint cannot stay
// documented.
func TestOperationsManualCoversEveryEndpoint(t *testing.T) {
	p, srv := newTestPlane(t, "", 1)
	p.Mount(srv)

	doc, err := os.ReadFile(filepath.Join("..", "..", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("OPERATIONS.md must exist at the repo root: %v", err)
	}
	text := string(doc)

	patterns := srv.Patterns()
	if len(patterns) < 10 {
		t.Fatalf("suspiciously few mux patterns (%d): %v", len(patterns), patterns)
	}
	mounted := make(map[string]bool, len(patterns))
	for _, pat := range patterns {
		mounted[pat] = true
		if !strings.Contains(text, "`"+pat+"`") {
			t.Errorf("OPERATIONS.md does not document mounted endpoint `%s`", pat)
		}
	}

	rows := 0
	for _, line := range strings.Split(text, "\n") {
		m := endpointRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		if !mounted[m[1]] {
			t.Errorf("OPERATIONS.md documents `%s`, which the serve mux does not mount", m[1])
		}
	}
	if rows < len(patterns) {
		t.Errorf("found %d endpoint rows in OPERATIONS.md for %d mounted patterns", rows, len(patterns))
	}
}
