package core

import (
	"strings"
	"testing"

	"datacell/internal/exec"
	"datacell/internal/vector"
)

// splitView builds a deliberately discontiguous two-part view over xs so
// every runtime test also exercises the cross-segment read path.
func splitView(xs []int64) vector.View {
	if len(xs) < 2 {
		return vector.ViewOf(vector.FromInt64(xs))
	}
	k := len(xs) / 2
	return vector.NewView(vector.Int64, vector.FromInt64(xs[:k]), vector.FromInt64(xs[k:]))
}

// stepWith drives a runtime directly with generated basic windows.
func stepWith(t *testing.T, rt *Runtime, nSources int, cols ...[]int64) (*exec.Table, StepStats) {
	t.Helper()
	newBW := make([][]vector.View, nSources)
	inputs := make([]exec.Input, nSources)
	for s := 0; s < nSources; s++ {
		// Interleave: even positions x1, odd positions x2 per source.
		x1 := cols[2*s]
		x2 := cols[2*s+1]
		newBW[s] = []vector.View{splitView(x1), splitView(x2)}
	}
	tbl, stats, err := rt.Step(newBW, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, stats
}

func TestRuntimePrefaceEmitsAtN(t *testing.T) {
	prog := compile(t, `SELECT sum(x2) FROM s [RANGE 30 SLIDE 10]`)
	ip, err := Rewrite(prog, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(ip)
	tbl, stats := stepWith(t, rt, 1, []int64{1, 1, 1}, []int64{1, 2, 3})
	if tbl != nil || stats.Emitted {
		t.Fatal("emitted before preface complete")
	}
	tbl, _ = stepWith(t, rt, 1, []int64{1, 1, 1}, []int64{4, 5, 6})
	if tbl != nil {
		t.Fatal("emitted at 2/3 slots")
	}
	tbl, stats = stepWith(t, rt, 1, []int64{1, 1, 1}, []int64{7, 8, 9})
	if tbl == nil || !stats.Emitted {
		t.Fatal("not emitted at full window")
	}
	if tbl.Cols[0].Get(0).I != 45 {
		t.Errorf("sum: %s", tbl)
	}
	if rt.Steps() != 3 || rt.MemorySlots() != 3 {
		t.Errorf("steps=%d slots=%d", rt.Steps(), rt.MemorySlots())
	}
	// Slide: window becomes windows 2..4.
	tbl, _ = stepWith(t, rt, 1, []int64{1, 1, 1}, []int64{10, 11, 12})
	if tbl.Cols[0].Get(0).I != 45-6+33 {
		t.Errorf("slid sum: %s", tbl)
	}
	if rt.MemorySlots() != 3 {
		t.Error("ring should stay at n slots")
	}
}

func TestRuntimeEmptyBasicWindow(t *testing.T) {
	prog := compile(t, `SELECT count(*), sum(x2) FROM s [RANGE 20 SLIDE 10] WHERE x1 > 0`)
	ip, err := Rewrite(prog, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(ip)
	stepWith(t, rt, 1, []int64{1, 2}, []int64{10, 20})
	tbl, _ := stepWith(t, rt, 1, []int64{}, []int64{})
	if tbl == nil {
		t.Fatal("empty basic window should still emit once ready")
	}
	if tbl.Cols[0].Get(0).I != 2 || tbl.Cols[1].Get(0).I != 30 {
		t.Errorf("window over (full, empty): %s", tbl)
	}
	tbl, _ = stepWith(t, rt, 1, []int64{}, []int64{})
	if tbl.Cols[0].Get(0).I != 0 {
		t.Errorf("window over (empty, empty) count: %s", tbl)
	}
}

func TestRuntimeLandmarkCompaction(t *testing.T) {
	prog := compile(t, `SELECT sum(x2), max(x1) FROM s [LANDMARK SLIDE 5]`)
	ip, err := Rewrite(prog, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(ip)
	total := int64(0)
	for step := 1; step <= 50; step++ {
		x1 := []int64{int64(step)}
		x2 := []int64{int64(step * 2)}
		total += int64(step * 2)
		tbl, _ := stepWith(t, rt, 1, x1, x2)
		if tbl == nil {
			t.Fatal("landmark must emit every step")
		}
		if tbl.Cols[0].Get(0).I != total {
			t.Fatalf("step %d: sum %v want %d", step, tbl.Cols[0].Get(0), total)
		}
		if tbl.Cols[1].Get(0).I != int64(step) {
			t.Fatalf("step %d: max %v", step, tbl.Cols[1].Get(0))
		}
		// Cumulative compaction keeps exactly one slot file regardless of
		// how many slides have happened.
		if rt.MemorySlots() != 1 {
			t.Fatalf("step %d: %d slot files, want 1 (compaction)", step, rt.MemorySlots())
		}
	}
}

// TestRuntimeJoinMatrixLifecycle follows the cells of a 2x2 join matrix
// across the preface and one slide. The float sum keeps the plan on the
// cell path (no join index), which is the one that stores cells.
func TestRuntimeJoinMatrixLifecycle(t *testing.T) {
	prog := compile(t, `SELECT count(*), sum(s.x1 * 0.5) FROM s [RANGE 4 SLIDE 2], s2 [RANGE 4 SLIDE 2] WHERE s.x2 = s2.x2`)
	ip, err := Rewrite(prog, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(ip)
	// bw1: left keys {1,2}, right keys {2,3} -> 1 pair in cell (0,0).
	tbl, _ := stepWith(t, rt, 2, []int64{0, 0}, []int64{1, 2}, []int64{0, 0}, []int64{2, 3})
	if tbl != nil {
		t.Fatal("preface emit")
	}
	if rt.CellCount() != 1 {
		t.Fatalf("cells after 1 step: %d", rt.CellCount())
	}
	// bw2: left {3,4}, right {1,4}.
	tbl, _ = stepWith(t, rt, 2, []int64{0, 0}, []int64{3, 4}, []int64{0, 0}, []int64{1, 4})
	if rt.CellCount() != 4 {
		t.Fatalf("cells after 2 steps: %d", rt.CellCount())
	}
	// Window = left {1,2,3,4} x right {2,3,1,4}: pairs 1,2,3,4 -> 4.
	if tbl == nil || tbl.Cols[0].Get(0).I != 4 {
		t.Fatalf("window 1 count: %v", tbl)
	}
	// Slide: left {3,4,5,2}, right {1,4,2,2}: matches 4, 2, 2 -> count 1+1+... left3:no, left4:yes(4), left5:no, left2: two 2s -> 3.
	tbl, _ = stepWith(t, rt, 2, []int64{0, 0}, []int64{5, 2}, []int64{0, 0}, []int64{2, 2})
	if rt.CellCount() != 4 {
		t.Fatalf("cells after slide: %d", rt.CellCount())
	}
	if tbl.Cols[0].Get(0).I != 3 {
		t.Fatalf("window 2 count: %s", tbl)
	}
}

func TestRuntimeChunkedEquivalence(t *testing.T) {
	prog := compile(t, `SELECT x1, sum(x2) FROM s [RANGE 20 SLIDE 10] WHERE x1 > 1 GROUP BY x1`)
	ip, err := Rewrite(prog, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	whole := NewRuntime(ip)
	chunked := NewRuntime(ip)
	inputs := []exec.Input{{}}

	feedWhole := func(rt *Runtime, x1, x2 []int64) *exec.Table {
		tbl, _, err := rt.Step([][]vector.View{vector.Views([]*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)})}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	feedChunks := func(rt *Runtime, x1, x2 []int64) *exec.Table {
		// Push all but the last two tuples as two chunks, then Step.
		k := len(x1) / 3
		if err := rt.PushChunk(0, vector.Views([]*vector.Vector{vector.FromInt64(x1[:k]), vector.FromInt64(x2[:k])}), inputs); err != nil {
			t.Fatal(err)
		}
		if err := rt.PushChunk(0, vector.Views([]*vector.Vector{vector.FromInt64(x1[k : 2*k]), vector.FromInt64(x2[k : 2*k])}), inputs); err != nil {
			t.Fatal(err)
		}
		tbl, _, err := rt.Step([][]vector.View{vector.Views([]*vector.Vector{vector.FromInt64(x1[2*k:]), vector.FromInt64(x2[2*k:])})}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}

	for step := 0; step < 6; step++ {
		x1 := make([]int64, 10)
		x2 := make([]int64, 10)
		for i := range x1 {
			x1[i] = int64((step*i + i) % 5)
			x2[i] = int64(step*100 + i)
		}
		a := feedWhole(whole, x1, x2)
		b := feedChunks(chunked, x1, x2)
		if (a == nil) != (b == nil) {
			t.Fatalf("step %d: emit mismatch", step)
		}
		if a == nil {
			continue
		}
		if a.String() != b.String() {
			t.Fatalf("step %d: chunked result differs:\n%s\nvs\n%s", step, a, b)
		}
	}
}

func TestRuntimeChunkRejectedForJoins(t *testing.T) {
	prog := compile(t, `SELECT count(*) FROM s [RANGE 4 SLIDE 2], s2 [RANGE 4 SLIDE 2] WHERE s.x2 = s2.x2`)
	ip, err := Rewrite(prog, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(ip)
	err = rt.PushChunk(0, vector.Views([]*vector.Vector{vector.FromInt64(nil), vector.FromInt64(nil)}), []exec.Input{{}, {}})
	if err == nil {
		t.Error("chunking a join plan should fail")
	}
}

func TestExplainIncrementalPlan(t *testing.T) {
	prog := compile(t, `SELECT x1, sum(x2) FROM s [RANGE 100 SLIDE 10] WHERE x1 > 5 GROUP BY x1`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	text := ip.Explain()
	for _, want := range []string{
		"n=10 basic windows",
		"input discarded",
		"per basic window of source 0",
		"merge inputs:",
		"merge (compensation + tail):",
		"slots per basic window",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}

	jp := compile(t, `SELECT max(s.x1) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`)
	jip, err := Rewrite(jp, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	jtext := jip.Explain()
	for _, want := range []string{"join matrix", "per join-matrix cell", "all matrix cells", "slots per matrix cell"} {
		if !strings.Contains(jtext, want) {
			t.Errorf("join explain missing %q:\n%s", want, jtext)
		}
	}

	lp := compile(t, `SELECT sum(x2) FROM s [LANDMARK SLIDE 5]`)
	lip, err := Rewrite(lp, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lip.Explain(), "landmark") {
		t.Error("landmark explain")
	}
}

func TestClassOf(t *testing.T) {
	prog := compile(t, `SELECT sum(x2) FROM s [RANGE 20 SLIDE 10] WHERE x1 > 0`)
	ip, err := Rewrite(prog, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Register 0 is the first bind: per-bw.
	if ip.ClassOf(0) != ClassPerBW {
		t.Errorf("bind class: %v", ip.ClassOf(0))
	}
}
