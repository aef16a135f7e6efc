package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/exec"
	"datacell/internal/vector"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	intCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: vector.Int64} }
	if err := e.RegisterStream("s", catalog.NewSchema(intCol("x1"), intCol("x2"))); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream("s2", catalog.NewSchema(intCol("x1"), intCol("x2"))); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable("tab", catalog.NewSchema(intCol("key"), intCol("val"))); err != nil {
		t.Fatal(err)
	}
	return e
}

// collect registers q under both modes and returns the two result slices.
type collector struct {
	results []*Result
}

func (c *collector) add(r *Result) { c.results = append(c.results, r) }

// tableKey renders a table to a canonical string. If sorted is true rows
// are order-insensitive (join outputs without aggregation).
func tableKey(tbl *exec.Table, sorted bool) string {
	rows := make([]string, tbl.NumRows())
	for i := 0; i < tbl.NumRows(); i++ {
		var parts []string
		for _, v := range tbl.Row(i) {
			parts = append(parts, v.String())
		}
		rows[i] = strings.Join(parts, ",")
	}
	if sorted {
		sort.Strings(rows)
	}
	return strings.Join(rows, ";")
}

// crossValidate feeds identical batches to an incremental and a
// re-evaluation registration of the same query and requires identical
// window results.
func crossValidate(t *testing.T, query string, feed func(e *Engine), orderInsensitive bool) {
	t.Helper()
	e := newTestEngine(t)
	var inc, ree collector
	qi, err := e.Register(query, Options{Mode: Incremental, OnResult: inc.add})
	if err != nil {
		t.Fatalf("register incremental %q: %v", query, err)
	}
	_ = qi
	if _, err := e.Register(query, Options{Mode: Reevaluation, OnResult: ree.add}); err != nil {
		t.Fatalf("register reevaluation %q: %v", query, err)
	}
	feed(e)
	if _, err := e.Pump(); err != nil {
		t.Fatalf("pump: %v", err)
	}
	if len(inc.results) == 0 {
		t.Fatalf("%q: no windows produced", query)
	}
	if len(inc.results) != len(ree.results) {
		t.Fatalf("%q: incremental %d windows, reevaluation %d", query, len(inc.results), len(ree.results))
	}
	for i := range inc.results {
		gi := tableKey(inc.results[i].Table, orderInsensitive)
		gr := tableKey(ree.results[i].Table, orderInsensitive)
		if gi != gr {
			t.Fatalf("%q window %d differs:\nincremental: %s\nreevaluation: %s",
				query, i+1, gi, gr)
		}
	}
}

func feedRandom(streams []string, total int, domain int64, seed int64, batch int) func(*Engine) {
	return func(e *Engine) {
		rng := rand.New(rand.NewSource(seed))
		for off := 0; off < total; off += batch {
			n := batch
			if off+n > total {
				n = total - off
			}
			for _, s := range streams {
				x1 := make([]int64, n)
				x2 := make([]int64, n)
				for i := range x1 {
					x1[i] = rng.Int63n(domain)
					x2[i] = rng.Int63n(1000)
				}
				if err := e.Append(s, []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, nil); err != nil {
					panic(err)
				}
			}
			// Interleave pumping with feeding to exercise partial windows.
			if _, err := e.Pump(); err != nil {
				panic(err)
			}
		}
	}
}

func TestCrossValidateSimpleSelect(t *testing.T) {
	crossValidate(t, `SELECT x1 FROM s [RANGE 40 SLIDE 10] WHERE x1 > 7`,
		feedRandom([]string{"s"}, 200, 20, 1, 17), false)
}

func TestCrossValidateSelectTumbling(t *testing.T) {
	crossValidate(t, `SELECT x1, x2 FROM s [RANGE 25] WHERE x1 < 9`,
		feedRandom([]string{"s"}, 150, 15, 2, 13), false)
}

func TestCrossValidateProjectionArithmetic(t *testing.T) {
	crossValidate(t, `SELECT x1 * 2 + 1, x2 - x1 FROM s [RANGE 30 SLIDE 6] WHERE x1 <> 4`,
		feedRandom([]string{"s"}, 180, 12, 3, 11), false)
}

func TestCrossValidateGlobalAggs(t *testing.T) {
	crossValidate(t, `SELECT sum(x2), count(*), min(x1), max(x1) FROM s [RANGE 32 SLIDE 8] WHERE x1 > 2`,
		feedRandom([]string{"s"}, 300, 25, 4, 19), false)
}

func TestCrossValidateAvg(t *testing.T) {
	// Fig 3c: expanding replication.
	crossValidate(t, `SELECT avg(x2) FROM s [RANGE 48 SLIDE 12] WHERE x1 < 20`,
		feedRandom([]string{"s"}, 400, 30, 5, 23), false)
}

func TestCrossValidateQuery1GroupBy(t *testing.T) {
	// The paper's Q1.
	crossValidate(t, `SELECT x1, sum(x2) FROM s [RANGE 60 SLIDE 10] WHERE x1 > 5 GROUP BY x1`,
		feedRandom([]string{"s"}, 400, 18, 6, 29), false)
}

func TestCrossValidateGroupedMinMaxCount(t *testing.T) {
	crossValidate(t, `SELECT x1, min(x2), max(x2), count(*) FROM s [RANGE 50 SLIDE 5] GROUP BY x1`,
		feedRandom([]string{"s"}, 350, 8, 7, 31), false)
}

func TestCrossValidateGroupedAvg(t *testing.T) {
	// Fig 3d composed with 3c: grouped expanding replication.
	crossValidate(t, `SELECT x1, avg(x2) FROM s [RANGE 40 SLIDE 8] WHERE x2 > 100 GROUP BY x1`,
		feedRandom([]string{"s"}, 320, 10, 8, 37), false)
}

func TestCrossValidateHaving(t *testing.T) {
	crossValidate(t, `SELECT x1, count(*) FROM s [RANGE 45 SLIDE 9] GROUP BY x1 HAVING count(*) > 2`,
		feedRandom([]string{"s"}, 270, 12, 9, 41), false)
}

func TestCrossValidateDistinct(t *testing.T) {
	crossValidate(t, `SELECT DISTINCT x1 FROM s [RANGE 36 SLIDE 6] WHERE x1 > 1`,
		feedRandom([]string{"s"}, 250, 9, 10, 43), false)
}

func TestCrossValidateOrderByLimit(t *testing.T) {
	crossValidate(t, `SELECT x1, x2 FROM s [RANGE 30 SLIDE 10] WHERE x1 > 3 ORDER BY x1 DESC, x2 LIMIT 7`,
		feedRandom([]string{"s"}, 240, 25, 11, 47), false)
}

func TestCrossValidateQuery2Join(t *testing.T) {
	// The paper's Q2: two-stream join with max and avg.
	crossValidate(t, `SELECT max(s.x1), avg(s2.x1) FROM s [RANGE 32 SLIDE 8], s2 [RANGE 32 SLIDE 8] WHERE s.x2 = s2.x2`,
		feedRandom([]string{"s", "s2"}, 200, 12, 12, 16), false)
}

func TestCrossValidateJoinRaw(t *testing.T) {
	// Raw join output: row order is unspecified between modes.
	crossValidate(t, `SELECT s.x1, s2.x1 FROM s [RANGE 24 SLIDE 6], s2 [RANGE 24 SLIDE 6] WHERE s.x2 = s2.x2`,
		feedRandom([]string{"s", "s2"}, 150, 10, 13, 9), true)
}

func TestCrossValidateJoinWithFilters(t *testing.T) {
	crossValidate(t, `SELECT count(*) FROM s [RANGE 30 SLIDE 5], s2 [RANGE 30 SLIDE 5]
		WHERE s.x2 = s2.x2 AND s.x1 > 3 AND s2.x1 < 9`,
		feedRandom([]string{"s", "s2"}, 220, 11, 14, 12), false)
}

func TestCrossValidateJoinGrouped(t *testing.T) {
	crossValidate(t, `SELECT s.x1, count(*) FROM s [RANGE 20 SLIDE 4], s2 [RANGE 20 SLIDE 4]
		WHERE s.x2 = s2.x2 GROUP BY s.x1`,
		feedRandom([]string{"s", "s2"}, 160, 7, 15, 8), true)
}

func TestCrossValidateStreamTableJoin(t *testing.T) {
	crossValidate(t, `SELECT sum(tab.val) FROM s [RANGE 30 SLIDE 6], tab WHERE s.x1 = tab.key`,
		func(e *Engine) {
			keys := make([]int64, 50)
			vals := make([]int64, 50)
			for i := range keys {
				keys[i] = int64(i % 10)
				vals[i] = int64(i)
			}
			if err := e.InsertTable("tab", []*vector.Vector{vector.FromInt64(keys), vector.FromInt64(vals)}); err != nil {
				t.Fatal(err)
			}
			feedRandom([]string{"s"}, 200, 15, 16, 14)(e)
		}, false)
}

func TestCrossValidateLandmark(t *testing.T) {
	// The paper's Q3 as a landmark query (Fig 6b).
	crossValidate(t, `SELECT max(x1), sum(x2) FROM s [LANDMARK SLIDE 20] WHERE x1 > 4`,
		feedRandom([]string{"s"}, 300, 22, 17, 26), false)
}

func TestCrossValidateLandmarkGroupBy(t *testing.T) {
	crossValidate(t, `SELECT x1, sum(x2) FROM s [LANDMARK SLIDE 15] GROUP BY x1`,
		feedRandom([]string{"s"}, 240, 6, 18, 21), false)
}

func TestCrossValidateChunkedProcessing(t *testing.T) {
	// Fixed chunking must not change results.
	e := newTestEngine(t)
	var inc, chunked collector
	if _, err := e.Register(`SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 8] WHERE x1 > 2 GROUP BY x1`,
		Options{Mode: Incremental, OnResult: inc.add}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(`SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 8] WHERE x1 > 2 GROUP BY x1`,
		Options{Mode: Incremental, Chunks: 4, OnResult: chunked.add}); err != nil {
		t.Fatal(err)
	}
	feedRandom([]string{"s"}, 320, 14, 19, 7)(e)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	if len(inc.results) == 0 || len(inc.results) != len(chunked.results) {
		t.Fatalf("windows: %d vs %d", len(inc.results), len(chunked.results))
	}
	for i := range inc.results {
		if tableKey(inc.results[i].Table, false) != tableKey(chunked.results[i].Table, false) {
			t.Fatalf("window %d differs under chunking", i+1)
		}
	}
}

func TestTimeWindowCrossValidate(t *testing.T) {
	e := newTestEngine(t)
	query := `SELECT sum(x2), count(*) FROM s [RANGE 10 SECONDS SLIDE 2 SECONDS] WHERE x1 > 3`
	var inc, ree collector
	if _, err := e.Register(query, Options{Mode: Incremental, OnResult: inc.add}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(query, Options{Mode: Reevaluation, OnResult: ree.add}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	ts := int64(0)
	for i := 0; i < 400; i++ {
		// Bursty arrivals: several tuples may share a second, and some
		// 2-second slots stay empty.
		ts += rng.Int63n(900_000) // up to 0.9s apart in micros
		x1 := rng.Int63n(10)
		x2 := rng.Int63n(100)
		if err := e.Append("s",
			[]*vector.Vector{vector.FromInt64([]int64{x1}), vector.FromInt64([]int64{x2})},
			[]int64{ts}); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			if _, err := e.Pump(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.SetWatermark("s", ts+20_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	if len(inc.results) == 0 {
		t.Fatal("no time windows produced")
	}
	if len(inc.results) != len(ree.results) {
		t.Fatalf("windows: inc %d vs ree %d", len(inc.results), len(ree.results))
	}
	for i := range inc.results {
		gi := tableKey(inc.results[i].Table, false)
		gr := tableKey(ree.results[i].Table, false)
		if gi != gr {
			t.Fatalf("time window %d differs: %s vs %s", i+1, gi, gr)
		}
	}
}

func TestFirstWindowTiming(t *testing.T) {
	// Both modes must emit their first result exactly when |W| tuples have
	// arrived, then once per |w|.
	e := newTestEngine(t)
	var inc collector
	if _, err := e.Register(`SELECT count(*) FROM s [RANGE 20 SLIDE 5]`,
		Options{Mode: Incremental, OnResult: inc.add}); err != nil {
		t.Fatal(err)
	}
	push := func(n int) {
		x := make([]int64, n)
		if err := e.Append("s", []*vector.Vector{vector.FromInt64(x), vector.FromInt64(x)}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	push(19)
	if len(inc.results) != 0 {
		t.Fatalf("result before window full: %d", len(inc.results))
	}
	push(1)
	if len(inc.results) != 1 {
		t.Fatalf("first window not emitted at |W|: %d", len(inc.results))
	}
	if inc.results[0].Table.Cols[0].Get(0).I != 20 {
		t.Errorf("first count: %v", inc.results[0].Table)
	}
	push(4)
	if len(inc.results) != 1 {
		t.Fatal("partial slide emitted")
	}
	push(1)
	if len(inc.results) != 2 {
		t.Fatal("second window missing")
	}
	if inc.results[1].Table.Cols[0].Get(0).I != 20 {
		t.Errorf("second count: %v", inc.results[1].Table)
	}
}

func TestDiscardInputShrinksBasket(t *testing.T) {
	e := newTestEngine(t)
	var inc, ree collector
	qInc, err := e.Register(`SELECT sum(x2) FROM s [RANGE 40 SLIDE 10]`, Options{Mode: Incremental, OnResult: inc.add})
	if err != nil {
		t.Fatal(err)
	}
	qRee, err := e.Register(`SELECT sum(x2) FROM s [RANGE 40 SLIDE 10]`, Options{Mode: Reevaluation, OnResult: ree.add})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom([]string{"s"}, 200, 10, 21, 10)(e)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	// Incremental with discard leaves its cursor fully advanced (nothing
	// visible); re-evaluation must retain a full window (minus the expired
	// slide) behind its cursor.
	if n := e.cursorOf(qInc, 0).Len(); n != 0 {
		t.Errorf("incremental cursor sees %d tuples; discard failed", n)
	}
	if n := e.cursorOf(qRee, 0).Len(); n != 30 {
		t.Errorf("reevaluation cursor sees %d tuples, want 30", n)
	}
	// The shared log retains exactly the union of what subscribers still
	// need: the re-evaluation query's 30 tuples pin the newest segments,
	// everything below the minimum horizon is reclaimable.
	if r := e.streamLog("s").Retained(); r < 30 || r > 200 {
		t.Errorf("shared log retains %d tuples", r)
	}
}

func TestRegisterErrors(t *testing.T) {
	e := newTestEngine(t)
	cases := []string{
		`SELECT x1 FROM s`,                 // no window
		`SELECT key FROM tab`,              // no stream
		`SELECT x1 FROM nosuch [RANGE 10]`, // unknown stream
		`SELECT x1 FROM`,                   // parse error
	}
	for _, q := range cases {
		if _, err := e.Register(q, Options{}); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
	// Chunking a join plan is rejected.
	if _, err := e.Register(`SELECT count(*) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`,
		Options{Mode: Incremental, Chunks: 4}); err == nil {
		t.Error("chunked join should be rejected")
	}
}

func TestQueryOnce(t *testing.T) {
	e := newTestEngine(t)
	if err := e.InsertTable("tab", []*vector.Vector{
		vector.FromInt64([]int64{1, 2, 3}),
		vector.FromInt64([]int64{10, 20, 30}),
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.QueryOnce(`SELECT sum(val) FROM tab WHERE key > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cols[0].Get(0).I != 50 {
		t.Errorf("one-time query: %s", tbl)
	}
	if _, err := e.QueryOnce(`SELECT x1 FROM s`); err == nil {
		t.Error("one-time query over stream should fail")
	}
}

func TestDeregisterStopsDelivery(t *testing.T) {
	e := newTestEngine(t)
	var c collector
	q, err := e.Register(`SELECT count(*) FROM s [RANGE 10 SLIDE 5]`, Options{Mode: Incremental, OnResult: c.add})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom([]string{"s"}, 20, 5, 22, 10)(e)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	got := len(c.results)
	if got == 0 {
		t.Fatal("no results before deregister")
	}
	e.Deregister(q)
	feedRandom([]string{"s"}, 50, 5, 23, 10)(e)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	if len(c.results) != got {
		t.Error("results delivered after deregister")
	}
}

func TestAppendRowsAndErrors(t *testing.T) {
	e := newTestEngine(t)
	if err := e.AppendRows("s", [][]vector.Value{
		{vector.IntValue(1), vector.IntValue(2)},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("nosuch", nil, nil); err == nil {
		t.Error("append to unknown stream should fail")
	}
	if err := e.AppendRows("s", [][]vector.Value{{vector.IntValue(1)}}, nil); err == nil {
		t.Error("bad arity should fail")
	}
	if err := e.InsertTable("nosuch", nil); err == nil {
		t.Error("insert into unknown table should fail")
	}
	if err := e.SetWatermark("nosuch", 5); err == nil {
		t.Error("watermark on unknown stream should fail")
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := newTestEngine(t)
	q, err := e.Register(`SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 10] GROUP BY x1`, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom([]string{"s"}, 200, 10, 24, 20)(e)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.MainNS <= 0 || st.MergeNS <= 0 || st.TotalNS < st.MainNS {
		t.Errorf("stage clock: main=%d merge=%d total=%d", st.MainNS, st.MergeNS, st.TotalNS)
	}
	if st.Windows == 0 {
		t.Error("no windows counted")
	}
	if e.LoadNS() <= 0 {
		t.Error("no load time recorded")
	}
}

func TestManyQueriesShareStream(t *testing.T) {
	e := newTestEngine(t)
	var cs [5]collector
	for i := 0; i < 5; i++ {
		w := 10 * (i + 1)
		q := fmt.Sprintf(`SELECT count(*) FROM s [RANGE %d SLIDE %d]`, w, w/2)
		if _, err := e.Register(q, Options{Mode: Incremental, OnResult: cs[i].add}); err != nil {
			t.Fatal(err)
		}
	}
	feedRandom([]string{"s"}, 200, 5, 25, 16)(e)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		w := 10 * (i + 1)
		wantWindows := 1 + (200-w)/(w/2)
		if len(cs[i].results) != wantWindows {
			t.Errorf("query %d: %d windows, want %d", i, len(cs[i].results), wantWindows)
		}
		for _, r := range cs[i].results {
			if r.Table.Cols[0].Get(0).I != int64(w) {
				t.Errorf("query %d: count %v, want %d", i, r.Table.Cols[0].Get(0), w)
			}
		}
	}
}
