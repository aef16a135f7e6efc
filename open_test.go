package datacell

import (
	"context"
	"testing"
)

// Public-API round-trip: a persistent DB is crashed (abandoned) and
// reopened; the recovered query replays its windows and continues.

func keyTables(rs []*Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Table.String()
	}
	return out
}

func TestOpenRecoversAndReplays(t *testing.T) {
	root := t.TempDir()
	db, err := OpenConfig(root, StoreConfig{SealRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() || db.DataDir() != root {
		t.Fatalf("Durable=%v DataDir=%q", db.Durable(), db.DataDir())
	}
	db.MustRegisterStream("s", Col("x1", Int64), Col("x2", Int64))
	q, err := db.Register(`SELECT x1, sum(x2) FROM s [RANGE 20 SLIDE 10] GROUP BY x1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 95; i++ {
		ts := []int64{int64(i) * 1000}
		if err := db.AppendAt("s", ts, []Value{Int(int64(i % 4)), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	before := q.Results()
	if len(before) == 0 {
		t.Fatal("no windows before crash")
	}
	// Crash: close the directory without deregistering anything.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenConfig(root, StoreConfig{SealRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rec := db2.RecoveredQueries()
	if len(rec) != 1 {
		t.Fatalf("recovered %d queries, want 1", len(rec))
	}
	if _, err := db2.Pump(); err != nil {
		t.Fatal(err)
	}
	after := rec[0].Results()
	w, g := keyTables(before), keyTables(after)
	if len(w) != len(g) {
		t.Fatalf("replayed %d windows, want %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("window %d differs after recovery:\nwant %s\ngot  %s", i+1, w[i], g[i])
		}
	}

	// The arrival clock resumes past the replayed event times: a
	// wall-clock Append must stamp above the recovered watermark.
	c, err := db2.clock("s")
	if err != nil {
		t.Fatal(err)
	}
	if c.last < 94*1000 {
		t.Fatalf("clock seeded at %d, want >= %d", c.last, 94*1000)
	}

	// Storage stats surface through the public API.
	st, ok := db2.StreamStorage("s")
	if !ok || !st.Durable || st.Segments == 0 {
		t.Fatalf("StreamStorage = %+v, %v", st, ok)
	}
	if all := db2.StorageByStream(); len(all) != 1 {
		t.Fatalf("StorageByStream has %d entries", len(all))
	}
}

func TestAdoptRecovered(t *testing.T) {
	root := t.TempDir()
	db, err := OpenConfig(root, StoreConfig{SealRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	db.MustRegisterStream("s", Col("x1", Int64), Col("x2", Int64))
	const sql = `SELECT sum(x2) FROM s [RANGE 10 SLIDE 5]`
	if _, err := db.Register(sql, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.AppendAt("s", []int64{int64(i)}, []Value{Int(1), Int(2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := OpenConfig(root, StoreConfig{SealRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if q := db2.AdoptRecovered("SELECT count(*) FROM s [RANGE 10 SLIDE 5]", Incremental); q != nil {
		t.Fatal("adopted a query with different SQL")
	}
	if q := db2.AdoptRecovered(sql, Reevaluation); q != nil {
		t.Fatal("adopted a query with different mode")
	}
	// Whitespace-insensitive match.
	q := db2.AdoptRecovered("SELECT  sum(x2)  FROM s\n[RANGE 10 SLIDE 5]", Incremental)
	if q == nil {
		t.Fatal("normalized statement did not adopt")
	}
	if len(db2.RecoveredQueries()) != 0 {
		t.Fatal("adoption left the query in the recovered list")
	}
	if q2 := db2.AdoptRecovered(sql, Incremental); q2 != nil {
		t.Fatal("double adoption")
	}
	// The adopted query is live: replay waits in its log, and the first
	// reader — a subscription opened after the replay — takes it over.
	if _, err := db2.Pump(); err != nil {
		t.Fatal(err)
	}
	ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	var got []int
	for r := range ch {
		got = append(got, r.Window)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("adopted query replayed windows %v to its first reader, want [1 2 3]", got)
	}
}

func TestOpenMemoryDBUnaffected(t *testing.T) {
	db := New()
	if db.Durable() || db.DataDir() != "" {
		t.Fatal("memory DB claims durability")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
