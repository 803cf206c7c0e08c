package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tab.Add("1", "2")
	tab.Addf("x", 3.14159, 7)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "3.142") {
		t.Errorf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.Add("1", "2")
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestStats(t *testing.T) {
	s := NewStats()
	if s.Mean() != 0 || s.Std() != 0 {
		t.Error("empty stats not zero")
	}
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	if s.N != 3 || s.Min != 1 || s.Max != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Mean() != 2 {
		t.Errorf("mean = %g", s.Mean())
	}
	if d := s.Std() - 0.816496580927726; d > 1e-12 || d < -1e-12 {
		t.Errorf("std = %g", s.Std())
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{ID: "X", Description: "demo", Pass: true}
	rep.Tables = append(rep.Tables, &Table{Header: []string{"c"}})
	rep.Notes = append(rep.Notes, "a note")
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo [PASS]", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	rep.Pass = false
	buf.Reset()
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "[FAIL]") {
		t.Error("FAIL status not rendered")
	}
}

// valueReports are the quick experiments whose tables hold only computed
// values, no timing column: their rendering at a fixed seed is pinned in
// testdata/quick_tables.golden. A3, A4, R2 and R3 time their solves and
// stay out.
var valueReports = map[string]bool{
	"E1": true, "E2-E7": true, "E8": true, "E9": true,
	"C1": true, "A1": true, "A2": true, "X1": true,
}

// TestQuickExperimentsPass runs every experiment in Quick mode and requires
// all invariants (theorem bounds) to hold, and the value tables to match
// the golden rendering, so a change to any oracle or pipeline behind them
// that moves an answer shows here. This is the end-to-end reproduction
// check at CI scale.
func TestQuickExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short")
	}
	reports, err := All(Config{Seed: 7, Quick: true, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 12 {
		t.Fatalf("expected 12 reports, got %d", len(reports))
	}
	var got bytes.Buffer
	for _, rep := range reports {
		if !rep.Pass {
			var buf bytes.Buffer
			rep.Render(&buf)
			t.Errorf("experiment %s failed its invariants:\n%s", rep.ID, buf.String())
		}
		if len(rep.Tables) == 0 {
			t.Errorf("experiment %s produced no tables", rep.ID)
		}
		if valueReports[rep.ID] {
			rep.Render(&got)
		}
	}
	golden := filepath.Join("testdata", "quick_tables.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("value tables differ from %s; rendered:\n%s", golden, got.String())
	}
}
