package engine

import (
	"math/rand"
	"sync"
	"testing"

	"datacell/internal/vector"
)

// feedBurst appends n deterministic tuples to stream in batches of batch
// rows without pumping in between, so a backlog of complete slides builds
// up and the batched (intra-query parallel) path actually engages.
func feedBurst(t *testing.T, e *Engine, stream string, seed, n, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	for off := 0; off < n; off += batch {
		m := batch
		if off+m > n {
			m = n - off
		}
		x1 := make([]int64, m)
		x2 := make([]int64, m)
		for i := range x1 {
			x1[i] = rng.Int63n(16)
			x2[i] = rng.Int63n(1000) - 500
		}
		if err := e.AppendColumns(stream, []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelMatchesSequential registers the same query three ways —
// sequential incremental, 4-worker incremental, and re-evaluation — on
// engines with tiny segments (so every window view spans boundaries),
// feeds an identical backlog, and requires the emitted windows to match
// byte for byte.
func TestParallelMatchesSequential(t *testing.T) {
	queries := []string{
		`SELECT count(*), sum(x2), min(x2), max(x2) FROM s [RANGE 64 SLIDE 8] WHERE x1 > 3`,
		`SELECT x1, sum(x2) FROM s [RANGE 64 SLIDE 8] WHERE x1 > 1 GROUP BY x1`,
		`SELECT max(s.x1) FROM s [RANGE 16 SLIDE 4], s2 [RANGE 16 SLIDE 4] WHERE s.x2 = s2.x2`,
	}
	for _, query := range queries {
		t.Run(query, func(t *testing.T) {
			type variant struct {
				name string
				opts Options
			}
			variants := []variant{
				{"seq", Options{Mode: Incremental, Parallelism: 1}},
				{"par4", Options{Mode: Incremental, Parallelism: 4}},
				{"reeval", Options{Mode: Reevaluation}},
			}
			var results [][]*Result
			for _, v := range variants {
				e := newTestEngine(t)
				e.streamLog("s").SetSealRows(8)
				e.streamLog("s2").SetSealRows(8)
				var c collector
				opts := v.opts
				opts.OnResult = c.add
				if _, err := e.Register(query, opts); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				// Whole backlog first, then one pump: many complete slides
				// are buffered, so par4 fires them in batches.
				feedBurst(t, e, "s", 1, 512, 37)
				feedBurst(t, e, "s2", 2, 512, 37)
				if _, err := e.Pump(); err != nil {
					t.Fatalf("%s pump: %v", v.name, err)
				}
				if len(c.results) == 0 {
					t.Fatalf("%s: no windows", v.name)
				}
				results = append(results, c.results)
			}
			for vi := 1; vi < len(results); vi++ {
				if len(results[vi]) != len(results[0]) {
					t.Fatalf("%s: %d windows, %s: %d", variants[0].name, len(results[0]),
						variants[vi].name, len(results[vi]))
				}
				for i := range results[0] {
					a, b := results[0][i], results[vi][i]
					if a.Window != b.Window || tableKey(a.Table, false) != tableKey(b.Table, false) {
						t.Fatalf("window %d differs (%s vs %s):\n%s\nvs\n%s",
							a.Window, variants[0].name, variants[vi].name, a.Table, b.Table)
					}
				}
			}
		})
	}
}

// TestChunkedUnchunkedParityRandomSplits feeds the same tuple sequence to
// a plain incremental query and a chunked one, slicing the stream into
// randomized batch sizes with a pump after every batch (so chunk pumping
// interleaves with window completion at arbitrary offsets), and requires
// identical window results. Covers the satellite parity requirement for
// PushChunk + Step.
func TestChunkedUnchunkedParityRandomSplits(t *testing.T) {
	const query = `SELECT x1, sum(x2), count(*) FROM s [RANGE 48 SLIDE 12] WHERE x1 > 2 GROUP BY x1`
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		plainE := newTestEngine(t)
		chunkE := newTestEngine(t)
		plainE.streamLog("s").SetSealRows(16)
		chunkE.streamLog("s").SetSealRows(16)
		var plain, chunked collector
		if _, err := plainE.Register(query, Options{Mode: Incremental, OnResult: plain.add}); err != nil {
			t.Fatal(err)
		}
		if _, err := chunkE.Register(query, Options{Mode: Incremental, Chunks: 4, OnResult: chunked.add}); err != nil {
			t.Fatal(err)
		}
		total := 480
		fed := 0
		for fed < total {
			m := 1 + rng.Intn(29)
			if fed+m > total {
				m = total - fed
			}
			x1 := make([]int64, m)
			x2 := make([]int64, m)
			for i := range x1 {
				x1[i] = int64((fed + i) % 7)
				x2[i] = int64((fed+i)*3%251 - 125)
			}
			cols := []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}
			if err := plainE.AppendColumns("s", cols, nil); err != nil {
				t.Fatal(err)
			}
			if err := chunkE.AppendColumns("s", cols, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := plainE.Pump(); err != nil {
				t.Fatal(err)
			}
			if _, err := chunkE.Pump(); err != nil {
				t.Fatal(err)
			}
			fed += m
		}
		if len(plain.results) == 0 || len(plain.results) != len(chunked.results) {
			t.Fatalf("trial %d: plain %d windows, chunked %d", trial, len(plain.results), len(chunked.results))
		}
		for i := range plain.results {
			if tableKey(plain.results[i].Table, false) != tableKey(chunked.results[i].Table, false) {
				t.Fatalf("trial %d window %d differs:\n%s\nvs\n%s",
					trial, i+1, plain.results[i].Table, chunked.results[i].Table)
			}
		}
	}
}

// TestReevaluationBareProjectionAcrossSegments is a regression test for
// the view-binding path: a bare projection (no filter, no aggregate)
// flows the bound column straight to the result builder, which must
// flatten a boundary-spanning view rather than reject it.
func TestReevaluationBareProjectionAcrossSegments(t *testing.T) {
	for _, mode := range []Mode{Reevaluation, Incremental} {
		e := newTestEngine(t)
		e.streamLog("s").SetSealRows(4) // every window spans segments
		var c collector
		if _, err := e.Register(`SELECT x1, x2 FROM s [RANGE 10 SLIDE 10]`,
			Options{Mode: mode, OnResult: c.add}); err != nil {
			t.Fatal(err)
		}
		x1 := make([]int64, 20)
		x2 := make([]int64, 20)
		for i := range x1 {
			x1[i], x2[i] = int64(i), int64(i*i)
		}
		if err := e.AppendColumns("s", []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pump(); err != nil {
			t.Fatalf("%v: pump: %v", mode, err)
		}
		if len(c.results) != 2 {
			t.Fatalf("%v: %d windows, want 2", mode, len(c.results))
		}
		for w, r := range c.results {
			if r.Table.NumRows() != 10 {
				t.Fatalf("%v window %d: %d rows", mode, w+1, r.Table.NumRows())
			}
			for i := 0; i < 10; i++ {
				want := int64(w*10 + i)
				if got := r.Table.Cols[0].Get(i).I; got != want {
					t.Fatalf("%v window %d row %d: x1=%d want %d", mode, w+1, i, got, want)
				}
			}
		}
	}
}

// TestParallelWorkersRaceStress runs a 4-worker query under the live
// scheduler while several producers append concurrently across segment
// boundaries — meaningful under -race: it exercises parallel per-bw
// workers reading multi-part views while receptors keep appending.
func TestParallelWorkersRaceStress(t *testing.T) {
	e := newTestEngine(t)
	e.streamLog("s").SetSealRows(16)
	var mu sync.Mutex
	windows := 0
	q, err := e.Register(
		`SELECT x1, sum(x2) FROM s [RANGE 64 SLIDE 16] WHERE x1 > 0 GROUP BY x1`,
		Options{Mode: Incremental, Parallelism: 4, OnResult: func(*Result) {
			mu.Lock()
			windows++
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	const producers, batches, rows = 4, 40, 32
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				x1 := make([]int64, rows)
				x2 := make([]int64, rows)
				for i := range x1 {
					x1[i] = int64((p + b + i) % 9)
					x2[i] = int64(p*1000 + b*10 + i)
				}
				if err := e.AppendColumns("s", []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	e.Stop()
	if _, err := e.Pump(); err != nil { // drain any remainder deterministically
		t.Fatal(err)
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := windows
	mu.Unlock()
	want := producers*batches*rows/16 - 3 // slides minus preface
	if got != want {
		t.Fatalf("windows: got %d want %d", got, want)
	}
}
