package core

import (
	"strings"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/plan"
	"datacell/internal/sql"
	"datacell/internal/vector"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, src := range []*catalog.Source{
		{Name: "s", Kind: catalog.Stream, Schema: catalog.NewSchema(
			catalog.Column{Name: "x1", Type: vector.Int64},
			catalog.Column{Name: "x2", Type: vector.Int64},
		)},
		{Name: "s2", Kind: catalog.Stream, Schema: catalog.NewSchema(
			catalog.Column{Name: "x1", Type: vector.Int64},
			catalog.Column{Name: "x2", Type: vector.Int64},
		)},
		{Name: "tab", Kind: catalog.Table, Schema: catalog.NewSchema(
			catalog.Column{Name: "key", Type: vector.Int64},
			catalog.Column{Name: "val", Type: vector.Int64},
		)},
	} {
		if err := cat.Register(src); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func compile(t testing.TB, q string) *plan.Program {
	t.Helper()
	prog, err := plan.Compile(q, testCatalog(t))
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	return prog
}

func TestRewriteSimpleSelect(t *testing.T) {
	// Fig 3a: select splits per basic window, result is a concatenation.
	prog := compile(t, `SELECT x1 FROM s [RANGE 100 SLIDE 10] WHERE x1 > 5`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if ip.N != 10 || ip.HasJoin || ip.Landmark {
		t.Errorf("plan meta: %+v", ip)
	}
	if len(ip.PerBW[0]) == 0 {
		t.Fatal("no per-bw instructions")
	}
	// The merge stage must be only concat + result.
	if len(ip.Merge) != 1 || ip.Merge[0].Op != plan.OpResult {
		t.Errorf("merge should be just result: %v", ip.Merge)
	}
	if len(ip.Concats) != 1 {
		t.Errorf("concats: %+v", ip.Concats)
	}
	if len(ip.SlotRegs[0]) != 1 {
		t.Errorf("slot regs: %v", ip.SlotRegs)
	}
}

func TestRewriteScalarAggCompensation(t *testing.T) {
	// Fig 3b: sum per basic window, concatenate, compensate with sum.
	prog := compile(t, `SELECT sum(x2) FROM s [RANGE 100 SLIDE 10] WHERE x1 < 50`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	// Per-bw fragment contains the partial aggregate.
	foundPartial := false
	for _, in := range ip.PerBW[0] {
		if in.Op == plan.OpAgg {
			foundPartial = true
		}
	}
	if !foundPartial {
		t.Error("per-bw fragment lacks the partial aggregate")
	}
	// Merge contains the compensating aggregate.
	foundComp := false
	for _, in := range ip.Merge {
		if in.Op == plan.OpAgg {
			foundComp = true
		}
	}
	if !foundComp {
		t.Error("merge lacks the compensating aggregate")
	}
}

func TestRewriteCountCompensatesWithSum(t *testing.T) {
	prog := compile(t, `SELECT count(*) FROM s [RANGE 100 SLIDE 10]`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ip.Merge {
		if in.Op == plan.OpAgg && in.Agg.String() != "sum" {
			t.Errorf("count must be compensated by sum, got %s", in.Agg)
		}
	}
}

func TestRewriteGroupedAggCluster(t *testing.T) {
	// Fig 3d: grouped aggregation re-groups concatenated partials.
	prog := compile(t, `SELECT x1, sum(x2) FROM s [RANGE 100 SLIDE 10] WHERE x1 > 5 GROUP BY x1`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	var mergeOps []string
	for _, in := range ip.Merge {
		mergeOps = append(mergeOps, in.Op.String())
	}
	text := strings.Join(mergeOps, " ")
	// Merge must regroup: group, repr, take (keys), agg (values), result.
	for _, want := range []string{"group", "repr", "take", "agg", "result"} {
		if !strings.Contains(text, want) {
			t.Errorf("merge ops %q missing %q", text, want)
		}
	}
	// Two slot registers per bw: keys and partial sums.
	if len(ip.SlotRegs[0]) != 2 {
		t.Errorf("slot regs: %v", ip.SlotRegs[0])
	}
}

func TestRewriteJoinBuildsCellStage(t *testing.T) {
	// Fig 3e: the join is replicated across basic-window pairs.
	prog := compile(t, `SELECT max(s.x1), avg(s2.x1) FROM s [RANGE 64 SLIDE 8], s2 [RANGE 64 SLIDE 8] WHERE s.x2 = s2.x2`)
	ip, err := Rewrite(prog, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ip.HasJoin {
		t.Fatal("join not detected")
	}
	var cellOps []string
	for _, in := range ip.Cell {
		cellOps = append(cellOps, in.Op.String())
	}
	text := strings.Join(cellOps, " ")
	if !strings.Contains(text, "hashjoin") {
		t.Errorf("cell stage lacks the join: %s", text)
	}
	// The join is described to the runtime for adaptive planning: its key
	// registers must be retained in the two sources' slots so the planner
	// can read exact post-filter cardinalities and intern build tables.
	if ip.Join == nil {
		t.Fatal("stream-stream join lacks a JoinSpec")
	}
	if ip.Join.At < 0 || ip.Join.At >= len(ip.Cell) || ip.Cell[ip.Join.At].Op != plan.OpHashJoin {
		t.Fatalf("JoinSpec.At = %d does not locate the hashjoin in %s", ip.Join.At, text)
	}
	if ip.ClassOf(ip.Join.LeftIn) != ClassPerBW || ip.ClassOf(ip.Join.RightIn) != ClassPerBW {
		t.Errorf("join key regs r%d/r%d are not per-bw", ip.Join.LeftIn, ip.Join.RightIn)
	}
	inSlots := func(s int, r plan.Reg) bool {
		for _, sr := range ip.SlotRegs[s] {
			if sr == r {
				return true
			}
		}
		return false
	}
	if !inSlots(0, ip.Join.LeftIn) || !inSlots(1, ip.Join.RightIn) {
		t.Errorf("join key regs r%d/r%d not retained in slots %v", ip.Join.LeftIn, ip.Join.RightIn, ip.SlotRegs)
	}
	// Partial aggregates (max, sum, count for avg) computed per cell.
	if !strings.Contains(text, "agg") {
		t.Errorf("cell stage lacks partial aggregates: %s", text)
	}
	// Both streams retain slot state for the matrix.
	if len(ip.SlotRegs[0]) == 0 || len(ip.SlotRegs[1]) == 0 {
		t.Errorf("join slots: %v", ip.SlotRegs)
	}
	if len(ip.CellRegs) == 0 {
		t.Error("no cell registers retained")
	}
}

func TestRewriteStreamTableJoinStaysPerBW(t *testing.T) {
	prog := compile(t, `SELECT sum(tab.val) FROM s [RANGE 100 SLIDE 10], tab WHERE s.x1 = tab.key`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if ip.HasJoin {
		t.Error("stream-table join must not build a cell matrix")
	}
	// The table bind is static; the join runs per basic window.
	if len(ip.Static) == 0 {
		t.Error("table bind should be static")
	}
	foundProbe := false
	for _, in := range ip.PerBW[0] {
		if in.Op == plan.OpHashProbe || in.Op == plan.OpHashJoin {
			foundProbe = true
		}
	}
	if !foundProbe {
		t.Error("join should probe per basic window against the static table")
	}
	foundBuild := false
	for _, in := range ip.Static {
		if in.Op == plan.OpHashBuild {
			foundBuild = true
		}
	}
	if !foundBuild {
		t.Error("table side should be built once in the static stage")
	}
}

func TestRewriteLandmark(t *testing.T) {
	prog := compile(t, `SELECT max(x1), sum(x2) FROM s [LANDMARK SLIDE 10] WHERE x1 > 3`)
	ip, err := Rewrite(prog, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ip.Landmark || ip.N != 1 {
		t.Errorf("landmark meta: %+v", ip)
	}
}

func TestRewriteHavingForcesMerge(t *testing.T) {
	prog := compile(t, `SELECT x1, sum(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1 HAVING sum(x2) > 10`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	// The HAVING select must be in the merge stage, not per-bw (it would
	// filter partial sums otherwise).
	for _, in := range ip.PerBW[0] {
		if in.Op == plan.OpSelect || in.Op == plan.OpSelectBools {
			// A WHERE-less plan has no per-bw select; any select found
			// must not consume the aggregate.
			t.Errorf("HAVING select leaked into the per-bw stage")
		}
	}
	found := false
	for _, in := range ip.Merge {
		if in.Op == plan.OpSelect || in.Op == plan.OpSelectBools {
			found = true
		}
	}
	if !found {
		t.Error("HAVING select missing from merge stage")
	}
}

func TestRewriteSortIsGlobal(t *testing.T) {
	prog := compile(t, `SELECT x1 FROM s [RANGE 100 SLIDE 10] ORDER BY x1`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ip.PerBW[0] {
		if in.Op == plan.OpSort {
			t.Error("sort must not run per basic window")
		}
	}
	found := false
	for _, in := range ip.Merge {
		if in.Op == plan.OpSort {
			found = true
		}
	}
	if !found {
		t.Error("sort missing from merge")
	}
}

func TestRewriteRejectsBadInput(t *testing.T) {
	prog := compile(t, `SELECT x1 FROM s [RANGE 100 SLIDE 10]`)
	if _, err := Rewrite(prog, 0, false); err == nil {
		t.Error("n=0 should fail")
	}
	empty := &plan.Program{}
	if _, err := Rewrite(empty, 4, false); err == nil {
		t.Error("invalid program should fail")
	}
}

func TestBasicWindows(t *testing.T) {
	w := &sql.WindowSpec{Kind: sql.CountWindow, Rows: 1000, SlideRows: 100}
	if BasicWindows(w) != 10 {
		t.Error("count bws")
	}
	w = &sql.WindowSpec{Kind: sql.TimeWindow, Dur: 60e9, SlideDur: 10e9}
	if BasicWindows(w) != 6 {
		t.Error("time bws")
	}
	w = &sql.WindowSpec{Kind: sql.LandmarkWindow}
	if BasicWindows(w) != 1 {
		t.Error("landmark bws")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{ClassStatic: "static", ClassPerBW: "perbw", ClassCell: "cell", ClassMerge: "merge"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%v.String() = %q", c, c.String())
		}
	}
}

func TestRewriteDiscardInput(t *testing.T) {
	prog := compile(t, `SELECT sum(x2) FROM s [RANGE 100 SLIDE 10]`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ip.Explain(), "input discarded after processing") {
		t.Errorf("Explain lost the discard-input line:\n%s", ip.Explain())
	}
}
