package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// Engine-level crash-recovery tests: a store-backed engine is abandoned
// mid-run (optionally with its tail segment torn), reopened from the same
// directory, and must replay the retained log into bit-identical window
// results — then keep going as if nothing happened.

func openStoreEngine(t *testing.T, root string, sealRows int) (*Engine, *storage.Dir) {
	t.Helper()
	d, err := storage.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithStore(d, 0)
	e.SetSealRows(sealRows)
	return e, d
}

func registerIntStream(t *testing.T, e *Engine, name string) {
	t.Helper()
	intCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: vector.Int64} }
	if err := e.RegisterStream(name, catalog.NewSchema(intCol("x1"), intCol("x2"))); err != nil {
		t.Fatal(err)
	}
}

// feedDet appends rows [from, to) of a fixed deterministic series to
// stream s, pumping every batch. ts advances 200ms per row so time
// windows fire too.
func feedDet(t *testing.T, e *Engine, from, to, batch int) {
	t.Helper()
	for lo := from; lo < to; lo += batch {
		hi := lo + batch
		if hi > to {
			hi = to
		}
		x1 := make([]int64, 0, hi-lo)
		x2 := make([]int64, 0, hi-lo)
		ts := make([]int64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			x1 = append(x1, int64(i%7))
			x2 = append(x2, int64(i*i%1000))
			ts = append(ts, int64(i)*200_000) // micros: 5 rows/s
		}
		if err := e.Append("s", []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pump(); err != nil {
			t.Fatal(err)
		}
	}
}

// resultKeys renders a result sequence canonically (window number +
// sorted rows) for bit-identical comparison across runs.
func resultKeys(rs []*Result) []string {
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = tableKey(r.Table, true)
	}
	return keys
}

func requireSameResults(t *testing.T, label string, want, got []*Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	w, g := resultKeys(want), resultKeys(got)
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: window %d differs:\nwant %s\ngot  %s", label, i+1, w[i], g[i])
		}
		if want[i].Window != got[i].Window {
			t.Fatalf("%s: window number %d vs %d at index %d", label, got[i].Window, want[i].Window, i)
		}
	}
}

const (
	recCountQ = "SELECT x1, sum(x2) FROM s [RANGE 32 SLIDE 16] GROUP BY x1"
	recTimeQ  = "SELECT count(*), max(x2) FROM s [RANGE 10 SECONDS SLIDE 5 SECONDS]"
)

// TestRecoverReplaysAndContinues is the core differential: crash after N
// rows, recover, replay must re-emit the crashed run's windows
// bit-identically, and the resumed run fed the remaining rows must end up
// identical to an uninterrupted run over all rows.
func TestRecoverReplaysAndContinues(t *testing.T) {
	root := t.TempDir()
	e1, d1 := openStoreEngine(t, root, 64)
	registerIntStream(t, e1, "s")
	intCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: vector.Int64} }
	if err := e1.RegisterTable("tab", catalog.NewSchema(intCol("key"), intCol("val"))); err != nil {
		t.Fatal(err)
	}

	var c1, c2 collector
	q1, err := e1.Register(recCountQ, Options{Mode: Incremental, OnResult: c1.add})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e1.Register(recTimeQ, Options{Mode: Reevaluation, OnResult: c2.add})
	if err != nil {
		t.Fatal(err)
	}

	const crashAt, total = 300, 450
	feedDet(t, e1, 0, crashAt, 23)
	if len(c1.results) == 0 || len(c2.results) == 0 {
		t.Fatalf("pre-crash run produced no windows (%d count, %d time)", len(c1.results), len(c2.results))
	}
	// Crash: abandon the engine. Closing the dir only releases fds — it
	// does not seal the tail, so recovery sees an unsealed segment.
	_ = d1.Close()

	e2, d2 := openStoreEngine(t, root, 64)
	defer d2.Close()
	defs, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 {
		t.Fatalf("recovered %d query defs, want 2", len(defs))
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Seq < defs[j].Seq })
	var r1, r2 collector
	rq1, err := e2.RegisterRecovered(defs[0], r1.add)
	if err != nil {
		t.Fatal(err)
	}
	rq2, err := e2.RegisterRecovered(defs[1], r2.add)
	if err != nil {
		t.Fatal(err)
	}
	if rq1.ID != q1.ID || rq2.ID != q2.ID {
		t.Fatalf("recovered ids %s/%s, want %s/%s", rq1.ID, rq2.ID, q1.ID, q2.ID)
	}
	if rq1.SQL != recCountQ || rq2.SQL != recTimeQ {
		t.Fatalf("recovered SQL drifted: %q / %q", rq1.SQL, rq2.SQL)
	}
	if rq1.Mode != Incremental || rq2.Mode != Reevaluation {
		t.Fatalf("recovered modes %v/%v", rq1.Mode, rq2.Mode)
	}

	// Replay: pump with no new data. Every pre-crash window re-emits
	// bit-identically.
	if _, err := e2.Pump(); err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "count-window replay", c1.results, r1.results)
	requireSameResults(t, "time-window replay", c2.results, r2.results)

	// The recovered table exists again (schema only).
	if _, ok := e2.tables["tab"]; !ok {
		t.Fatal("table tab not re-declared by recovery")
	}

	// Continue feeding; the resumed run must match an uninterrupted run.
	feedDet(t, e2, crashAt, total, 23)

	ref := newTestEngine(t)
	var f1, f2 collector
	if _, err := ref.Register(recCountQ, Options{Mode: Incremental, OnResult: f1.add}); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Register(recTimeQ, Options{Mode: Reevaluation, OnResult: f2.add}); err != nil {
		t.Fatal(err)
	}
	feedDet(t, ref, 0, total, 23)
	requireSameResults(t, "count-window resumed vs uninterrupted", f1.results, r1.results)
	requireSameResults(t, "time-window resumed vs uninterrupted", f2.results, r2.results)
}

// tornTail truncates n bytes off the newest segment file of stream s.
func tornTail(t *testing.T, root string, n int64) {
	t.Helper()
	dir := filepath.Join(root, "streams", "s")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".seg") {
			segs = append(segs, ent.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segment files to tear")
	}
	sort.Strings(segs)
	path := filepath.Join(dir, segs[len(segs)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= n {
		t.Fatalf("segment %s only %d bytes, cannot tear %d", path, fi.Size(), n)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTornTailMatchesPrefixRun tears bytes off the tail segment
// after the crash; the recovered engine must behave exactly like a fresh
// run fed only the surviving row prefix.
func TestRecoverTornTailMatchesPrefixRun(t *testing.T) {
	for _, tear := range []int64{3, 11, 50} {
		root := t.TempDir()
		e1, d1 := openStoreEngine(t, root, 64)
		registerIntStream(t, e1, "s")
		var c1 collector
		if _, err := e1.Register(recCountQ, Options{Mode: Incremental, OnResult: c1.add}); err != nil {
			t.Fatal(err)
		}
		feedDet(t, e1, 0, 300, 17)
		_ = d1.Close()
		tornTail(t, root, tear)

		e2, d2 := openStoreEngine(t, root, 64)
		defs, err := e2.Recover()
		if err != nil {
			t.Fatalf("tear %d: %v", tear, err)
		}
		survived := int(e2.streams["s"].log.Appended())
		if survived >= 300 || survived == 0 {
			t.Fatalf("tear %d: %d rows survived, want a proper prefix", tear, survived)
		}
		var r1 collector
		if _, err := e2.RegisterRecovered(defs[0], r1.add); err != nil {
			t.Fatalf("tear %d: %v", tear, err)
		}
		if _, err := e2.Pump(); err != nil {
			t.Fatalf("tear %d: %v", tear, err)
		}
		d2.Close()

		ref := newTestEngine(t)
		var f1 collector
		if _, err := ref.Register(recCountQ, Options{Mode: Incremental, OnResult: f1.add}); err != nil {
			t.Fatal(err)
		}
		feedDet(t, ref, 0, survived, 17)
		requireSameResults(t, "torn-tail replay vs prefix run", f1.results, r1.results)
	}
}

// TestRecoverSeqStability: deregistered queries stay gone, recovered ids
// are stable, and post-recovery registrations never collide with ids the
// crashed run handed out.
func TestRecoverSeqStability(t *testing.T) {
	root := t.TempDir()
	e1, d1 := openStoreEngine(t, root, 64)
	registerIntStream(t, e1, "s")
	q1, err := e1.Register(recCountQ, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e1.Register(recTimeQ, Options{Mode: Reevaluation})
	if err != nil {
		t.Fatal(err)
	}
	e1.Deregister(q1)
	_ = d1.Close()

	e2, d2 := openStoreEngine(t, root, 64)
	defer d2.Close()
	defs, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 || defs[0].SQL != recTimeQ {
		t.Fatalf("recovered defs %+v, want just the time query", defs)
	}
	rq2, err := e2.RegisterRecovered(defs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if rq2.ID != q2.ID {
		t.Fatalf("recovered id %s, want %s", rq2.ID, q2.ID)
	}
	q3, err := e2.Register(recCountQ, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	if q3.ID == q1.ID || q3.ID == q2.ID {
		t.Fatalf("new id %s collides with crashed-run ids %s/%s", q3.ID, q1.ID, q2.ID)
	}
}

// TestRecoverOldManifestKeys: a MANIFEST.json written before the four
// per-query baseline switches were dropped from QueryDef still opens; the
// stale keys are ignored and the recovered query replays bit-identically
// (the switches never changed a result, only how it was computed).
func TestRecoverOldManifestKeys(t *testing.T) {
	root := t.TempDir()
	e1, d1 := openStoreEngine(t, root, 64)
	registerIntStream(t, e1, "s")
	var c1 collector
	if _, err := e1.Register(recCountQ, Options{Mode: Incremental, OnResult: c1.add}); err != nil {
		t.Fatal(err)
	}
	feedDet(t, e1, 0, 300, 23)
	if len(c1.results) == 0 {
		t.Fatal("pre-crash run produced no windows")
	}
	_ = d1.Close()

	// Rewrite the manifest as the old engine would have journaled a query
	// registered with every switch set.
	path := filepath.Join(root, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	def := man["queries"].([]any)[0].(map[string]any)
	for _, key := range []string{"private_fragments", "private_merge_tails", "private_join_plan", "serial_merge_instr"} {
		def[key] = true
	}
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, d2 := openStoreEngine(t, root, 64)
	defer d2.Close()
	defs, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 || defs[0].SQL != recCountQ {
		t.Fatalf("recovered defs %+v, want the one count query", defs)
	}
	var r1 collector
	if _, err := e2.RegisterRecovered(defs[0], r1.add); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Pump(); err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "replay from an old manifest", c1.results, r1.results)
}

// TestRecoverEmptyDir: recovering a fresh directory is a no-op and the
// engine is immediately usable.
func TestRecoverEmptyDir(t *testing.T) {
	e, d := openStoreEngine(t, t.TempDir(), 64)
	defer d.Close()
	defs, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 0 {
		t.Fatalf("fresh dir recovered %d defs", len(defs))
	}
	registerIntStream(t, e, "s")
	var c collector
	if _, err := e.Register(recCountQ, Options{Mode: Incremental, OnResult: c.add}); err != nil {
		t.Fatal(err)
	}
	feedDet(t, e, 0, 100, 25)
	if len(c.results) == 0 {
		t.Fatal("no windows after empty recovery")
	}
}
