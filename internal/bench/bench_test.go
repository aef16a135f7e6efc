package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Scale: 256, Windows: 3} }

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestRunFig4a(t *testing.T) {
	tbl, err := RunFig4a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Steady-state windows (2+): incremental must beat re-evaluation.
	for i := 1; i < len(tbl.Rows); i++ {
		ree, inc := cell(t, tbl, i, 1), cell(t, tbl, i, 2)
		if inc >= ree {
			t.Errorf("window %d: incremental %.3f >= reevaluation %.3f", i+1, inc, ree)
		}
	}
}

func TestRunFig4b(t *testing.T) {
	tbl, err := RunFig4b(Config{Scale: 128, Windows: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Compare steady-state averages (individual windows are noisy at test
	// scale).
	var ree, inc float64
	for i := 1; i < len(tbl.Rows); i++ {
		ree += cell(t, tbl, i, 1)
		inc += cell(t, tbl, i, 2)
	}
	if inc >= ree {
		t.Errorf("join steady state: incremental %.3f >= reevaluation %.3f", inc, ree)
	}
}

func TestRunFig5a(t *testing.T) {
	tbl, err := RunFig5a(Config{Scale: 4096, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Re-evaluation cost must grow with selectivity (first vs last).
	if cell(t, tbl, 8, 1) <= cell(t, tbl, 0, 1) {
		t.Errorf("reevaluation cost did not grow with selectivity:\n%v", tbl.Rows)
	}
}

func TestRunFig5b(t *testing.T) {
	tbl, err := RunFig5b(Config{Scale: 4096, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestRunFig6a(t *testing.T) {
	tbl, err := RunFig6a(Config{Scale: 8192, Windows: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Bigger windows cost more for re-evaluation.
	if cell(t, tbl, 2, 1) <= cell(t, tbl, 0, 1) {
		t.Errorf("reevaluation cost did not grow with window size:\n%v", tbl.Rows)
	}
}

func TestRunFig6b(t *testing.T) {
	tbl, err := RunFig6b(Config{Scale: 8192, Windows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestRunFig7a(t *testing.T) {
	tbl, err := RunFig7a(Config{Scale: 4096, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 5 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Total = main + merge (approximately; the total includes bookkeeping).
	for i := range tbl.Rows {
		total, main, merge := cell(t, tbl, i, 2), cell(t, tbl, i, 3), cell(t, tbl, i, 4)
		if main+merge > total*1.5+1 {
			t.Errorf("row %d: main %.3f + merge %.3f inconsistent with total %.3f", i, main, merge, total)
		}
	}
}

func TestRunFig7b(t *testing.T) {
	tbl, err := RunFig7b(Config{Scale: 1024, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestRunFig8(t *testing.T) {
	tbl, err := RunFig8(Config{Scale: 2048, Windows: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 20 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Notes, "settled on m=") {
		t.Errorf("notes: %q", tbl.Notes)
	}
	// m must have increased beyond 1 at some point.
	sawBigger := false
	for _, r := range tbl.Rows {
		if r[1] != "1" {
			sawBigger = true
		}
	}
	if !sawBigger {
		t.Error("adaptive controller never increased m")
	}
}

func TestRunFig9(t *testing.T) {
	tbl, err := RunFig9(Config{Scale: 1024, Windows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(fig9Sizes) {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestRunFig9Inset(t *testing.T) {
	tbl, err := RunFig9Inset(Config{Scale: 1024, Windows: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		total := cell(t, tbl, i, 1)
		proc := cell(t, tbl, i, 2)
		load := cell(t, tbl, i, 3)
		if proc < 0 || load < 0 || proc+load > total*1.2+1 {
			t.Errorf("row %d breakdown inconsistent: total=%.3f proc=%.3f load=%.3f", i, total, proc, load)
		}
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		Figure: "Fig X", Title: "demo",
		Header: []string{"a", "longheader"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "note",
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Fig X", "longheader", "333", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{Scale: 0}
	if c.scale(100) != 100 {
		t.Error("scale 0 should clamp to 1")
	}
	c = Config{Scale: 1000}
	if c.scale(100) != 1 {
		t.Error("scale result should clamp to 1")
	}
	if (Config{}).windows(7) != 7 || (Config{Windows: 3}).windows(7) != 3 {
		t.Error("windows override")
	}
	if DefaultConfig().Scale != 64 {
		t.Error("default scale")
	}
	if avg(nil) != 0 || steadyMedian(nil) != 0 {
		t.Error("avg of empty")
	}
	if steadyMedian([]int64{100}) != 100 || steadyMedian([]int64{100, 10, 20}) != 15 {
		t.Error("steadyMedian")
	}
	// One stalled window moves the mean of the steady windows, not the
	// median.
	if steadyMedian([]int64{100, 10, 9000, 20}) != 20 {
		t.Error("steadyMedian of a stalled window")
	}
}
