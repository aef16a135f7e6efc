package datacell

import (
	"context"
	"sync"
	"testing"
	"time"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustRegisterStream("s", Col("x1", Int64), Col("x2", Int64))
	db.MustRegisterTable("dim", Col("key", Int64), Col("name", String))
	return db
}

func TestRegisterStreamErrors(t *testing.T) {
	db := New()
	if err := db.RegisterStream("empty"); err == nil {
		t.Error("empty schema should fail")
	}
	if err := db.RegisterStream("s", Col("a", Int64)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterStream("s", Col("a", Int64)); err == nil {
		t.Error("duplicate stream should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegisterStream should panic on error")
		}
	}()
	db.MustRegisterStream("s", Col("a", Int64))
}

func TestEndToEndIncremental(t *testing.T) {
	db := newDB(t)
	q, err := db.Register(`SELECT x1, sum(x2) FROM s [RANGE 6 SLIDE 2] WHERE x1 > 0 GROUP BY x1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode() != Incremental {
		t.Error("default mode should be incremental")
	}
	for i := 0; i < 10; i++ {
		if err := db.Append("s", []Value{Int(int64(i%3 + 1)), Int(10)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	results := q.Results()
	if len(results) != 3 {
		t.Fatalf("windows: %d", len(results))
	}
	// Every window spans 6 tuples with x2=10: sums must total 60.
	for _, r := range results {
		total := int64(0)
		for i := 0; i < r.Table.NumRows(); i++ {
			total += r.Table.Cols[1].Get(i).I
		}
		if total != 60 {
			t.Errorf("window %d sums to %d: %s", r.Window, total, r.Table)
		}
		if r.Latency <= 0 {
			t.Error("latency not recorded")
		}
	}
}

func TestResultsBufferAndReplay(t *testing.T) {
	db := newDB(t)
	q, err := db.Register(`SELECT count(*) FROM s [RANGE 4 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		db.Append("s", []Value{Int(1), Int(1)})
	}
	db.Pump()
	// No reader yet: results buffered, and the first subscription takes
	// them over in order.
	ch, err := q.Subscribe(context.Background(), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 3; want++ {
		if r := recv(t, ch); r.Window != want {
			t.Fatalf("replayed window %d, want %d", r.Window, want)
		}
	}
	if rs := q.Results(); len(rs) != 0 {
		t.Fatalf("Results after the first reader took over: %d windows", len(rs))
	}
}

func TestResultsDrain(t *testing.T) {
	db := newDB(t)
	q, err := db.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append("s", []Value{Int(1), Int(1)}, []Value{Int(2), Int(2)})
	db.Pump()
	rs := q.Results()
	if len(rs) != 1 || rs[0].Table.Cols[0].Get(0).I != 2 {
		t.Fatalf("drained: %v", rs)
	}
	if len(q.Results()) != 0 {
		t.Error("second drain should be empty")
	}
}

func TestReevaluationModeMatches(t *testing.T) {
	db := newDB(t)
	qi, _ := db.Register(`SELECT max(x2) FROM s [RANGE 5 SLIDE 1]`, Options{Mode: Incremental})
	qr, _ := db.Register(`SELECT max(x2) FROM s [RANGE 5 SLIDE 1]`, Options{Mode: Reevaluation})
	for i := 0; i < 20; i++ {
		db.Append("s", []Value{Int(1), Int(int64((i * 7) % 13))})
	}
	db.Pump()
	ri, rr := qi.Results(), qr.Results()
	if len(ri) != 16 || len(rr) != 16 {
		t.Fatalf("windows: %d vs %d", len(ri), len(rr))
	}
	for i := range ri {
		if ri[i].Table.Cols[0].Get(0).I != rr[i].Table.Cols[0].Get(0).I {
			t.Fatalf("window %d: %v vs %v", i+1, ri[i].Table, rr[i].Table)
		}
	}
}

func TestStreamTableJoinPublicAPI(t *testing.T) {
	db := newDB(t)
	if err := db.InsertRows("dim",
		[]Value{Int(1), Str("one")},
		[]Value{Int(2), Str("two")},
	); err != nil {
		t.Fatal(err)
	}
	q, err := db.Register(`SELECT dim.name, count(*) FROM s [RANGE 4 SLIDE 4], dim WHERE s.x1 = dim.key GROUP BY dim.name`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append("s",
		[]Value{Int(1), Int(0)}, []Value{Int(2), Int(0)},
		[]Value{Int(1), Int(0)}, []Value{Int(9), Int(0)})
	db.Pump()
	rs := q.Results()
	if len(rs) != 1 {
		t.Fatalf("results: %d", len(rs))
	}
	tbl := rs[0].Table
	if tbl.NumRows() != 2 || tbl.Cols[0].Get(0).S != "one" || tbl.Cols[1].Get(0).I != 2 {
		t.Errorf("join result: %s", tbl)
	}
}

func TestQueryOncePublicAPI(t *testing.T) {
	db := newDB(t)
	db.InsertRows("dim", []Value{Int(5), Str("five")})
	tbl, err := db.QueryOnce(`SELECT name FROM dim WHERE key = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 || tbl.Cols[0].Get(0).S != "five" {
		t.Errorf("result: %s", tbl)
	}
}

func TestBackgroundScheduler(t *testing.T) {
	db := newDB(t)
	q, err := db.Register(`SELECT count(*) FROM s [RANGE 10 SLIDE 10]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.Run()
	defer db.Stop()
	db.Run() // idempotent
	for i := 0; i < 30; i++ {
		if err := db.Append("s", []Value{Int(1), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1; want <= 3; want++ {
		select {
		case r := <-ch:
			if r.Window != want {
				t.Fatalf("window %d, want %d", r.Window, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("scheduler produced %d windows, want 3", want-1)
		}
	}
	db.Stop()
	db.Stop() // idempotent
}

// TestRunErrorAndRestart poisons a query (integer MOD by zero fails at
// execution time), checks the error surfaces via Err/Query.Err without
// killing healthy queries, and verifies Stop+Run revives the scheduler.
func TestRunErrorAndRestart(t *testing.T) {
	db := newDB(t)
	bad, err := db.Register(`SELECT sum(x2 % x1) FROM s [RANGE 2 SLIDE 2]`, Options{Mode: Reevaluation})
	if err != nil {
		t.Fatal(err)
	}
	good, err := db.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Run()
	if !db.Running() {
		t.Fatal("Running should report true")
	}
	if err := db.Append("s", []Value{Int(0), Int(7)}, []Value{Int(0), Int(7)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for bad.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("poisoned query never reported an error")
		}
		time.Sleep(time.Millisecond)
	}
	if db.Err() == nil {
		t.Error("DB.Err should surface the worker error")
	}
	// Healthy query keeps producing despite its neighbour's death.
	for good.Windows() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("healthy query starved")
		}
		time.Sleep(time.Millisecond)
	}
	db.Stop()
	if db.Running() {
		t.Error("Running should report false after Stop")
	}
	if db.Err() == nil {
		t.Error("error must survive Stop")
	}

	// Restart: the error clears and the healthy query resumes.
	db.Run()
	if err := db.Append("s", []Value{Int(1), Int(1)}, []Value{Int(1), Int(1)}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for good.Windows() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler did not revive: %d windows", good.Windows())
		}
		time.Sleep(time.Millisecond)
	}
	db.Stop()
}

// TestConcurrentAppendAndRead exercises the public API under -race:
// multiple appender goroutines while the scheduler runs, with readers
// polling Windows, Stats, Results and Err.
func TestConcurrentAppendAndRead(t *testing.T) {
	db := newDB(t)
	q, err := db.Register(`SELECT x1, sum(x2) FROM s [RANGE 20 SLIDE 10] GROUP BY x1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Run()
	const writers = 4
	const perWriter = 250
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Append("s", []Value{Int(k), Int(1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			_ = q.Windows()
			_ = q.Results()
			_ = q.Err()
			_ = db.Err()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stopRead)
	<-done
	db.Stop()
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	total := writers * perWriter
	want := (total-20)/10 + 1
	if got := q.Windows(); got != want {
		t.Errorf("windows: %d, want %d", got, want)
	}
}

// TestRegisterWhileRunning verifies a query registered after Run gets a
// worker immediately.
func TestRegisterWhileRunning(t *testing.T) {
	db := newDB(t)
	db.Run()
	defer db.Stop()
	q, err := db.Register(`SELECT count(*) FROM s [RANGE 5 SLIDE 5]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Append("s", []Value{Int(1), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Windows() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("late-registered query produced %d windows", q.Windows())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAppendErrors(t *testing.T) {
	db := newDB(t)
	if err := db.Append("nosuch", []Value{Int(1)}); err == nil {
		t.Error("append to unknown stream should fail")
	}
	if err := db.Append("s"); err != nil {
		t.Error("empty append should be a no-op")
	}
	if err := db.InsertRows("dim"); err != nil {
		t.Error("empty insert should be a no-op")
	}
	if err := db.InsertRows("dim", []Value{Int(1), Str("a")}, []Value{Int(2)}); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestTimeWindowPublicAPI(t *testing.T) {
	db := newDB(t)
	q, err := db.Register(`SELECT count(*) FROM s [RANGE 2 SECONDS SLIDE 1 SECONDS]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000)
	for i := 0; i < 5; i++ {
		ts := base + int64(i)*500_000 // 2 tuples per second
		if err := db.AppendAt("s", []int64{ts}, []Value{Int(1), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	db.SetWatermark("s", base+10_000_000)
	db.Pump()
	rs := q.Results()
	if len(rs) == 0 {
		t.Fatal("no time windows")
	}
	if rs[0].Table.Cols[0].Get(0).I != 4 {
		t.Errorf("first 2s window should hold 4 tuples: %s", rs[0].Table)
	}
}

func TestCloseStopsQuery(t *testing.T) {
	db := newDB(t)
	q, _ := db.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{})
	q.Close()
	db.Append("s", []Value{Int(1), Int(1)}, []Value{Int(1), Int(1)})
	db.Pump()
	if len(q.Results()) != 0 {
		t.Error("closed query still produced results")
	}
}

func TestValueConstructors(t *testing.T) {
	if Int(4).I != 4 || Float(2.5).F != 2.5 || Str("x").S != "x" || !Boolean(true).B {
		t.Error("value constructors")
	}
	if Col("a", Int64).Name != "a" {
		t.Error("col constructor")
	}
	if q, err := New().Register("SELECT", Options{}); err == nil || q != nil {
		t.Error("bad SQL should fail")
	}
}

// TestJoinIndexStats: a two-stream join whose aggregates all fold through
// matrix panes runs through the window-level join index, and QueryStats
// counts its work: one probe per new post-filter row of either side, one
// hit per matching pair of rows whose basic windows share a window.
func TestJoinIndexStats(t *testing.T) {
	db := newDB(t)
	db.MustRegisterStream("s2", Col("x1", Int64), Col("x2", Int64))
	q, err := db.Register(`SELECT count(*), sum(s.x1) FROM s [RANGE 4 SLIDE 2], s2 [RANGE 4 SLIDE 2] WHERE s.x2 = s2.x2 AND s.x1 > 0`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Four slides of two rows per stream, every row on key 1; the left
	// filter drops one row of the third slide.
	for i := 0; i < 8; i++ {
		x1 := int64(i + 1)
		if i == 4 {
			x1 = 0
		}
		if err := db.Append("s", []Value{Int(x1), Int(1)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Append("s2", []Value{Int(int64(i)), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for _, r := range q.Results() {
		counts = append(counts, r.Table.Cols[0].Get(0).I)
	}
	// Left basic windows keep 2, 2, 1, 2 rows, right ones 2 each; a window
	// holds two of each, so pairs join across basic windows at most one
	// apart: 2·2 + 2·2 + 1·2 + 2·2 within a slide, 2·2 + 2·2 + 2·1 across
	// (left older) and 2·2 + 1·2 + 2·2 across (right older).
	st := q.Stats()
	if st.JoinProbes != 7+8 || st.JoinHits != 14+10+10 {
		t.Errorf("probes %d hits %d, want 15 and 34\n%s", st.JoinProbes, st.JoinHits, q.Explain())
	}
	if want := []int64{16, 12, 12}; len(counts) != len(want) || counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] {
		t.Errorf("window counts %v, want %v", counts, want)
	}
}
