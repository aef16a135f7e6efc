package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/core"
	"datacell/internal/vector"
)

// catalogSchemaFloat is the one-column float stream schema used by the
// re-evaluation float-parity test.
func catalogSchemaFloat() catalog.Schema {
	return catalog.NewSchema(catalog.Column{Name: "f", Type: vector.Float64})
}

// forceShards raises GOMAXPROCS so the partitioned merge actually shards
// (the runtime caps the shard count at schedulable CPUs — on a single-core
// host the multi-shard path would otherwise never run).
func forceShards(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// feedSkewed appends n tuples whose x1 keys come from a skewed domain
// (2/3 of rows collapse onto domain/16 hot keys) in batch-sized chunks,
// building a backlog without pumping.
func feedSkewed(t *testing.T, e *Engine, stream string, seed int64, n, batch int, domain int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for off := 0; off < n; off += batch {
		m := batch
		if off+m > n {
			m = n - off
		}
		x1 := make([]int64, m)
		x2 := make([]int64, m)
		for i := range x1 {
			k := rng.Int63n(domain)
			if rng.Intn(3) > 0 {
				k = rng.Int63n(1 + domain/16)
			}
			x1[i] = k
			x2[i] = rng.Int63n(2000) - 1000
		}
		if err := e.AppendColumns(stream, []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupedMergeParityAcrossModes pins the tentpole parity contract:
// grouped aggregations over multi-segment windows must emit bit-identical
// windows whether the merge runs serially (Parallelism 1), partitioned
// across randomized worker counts (which is also the shard count), or the
// query re-evaluates — monolithically and segment-parallel. Key domains
// span tiny (heavy groups) to larger than the window (mostly singleton
// groups, the partitioned merge's target shape), always skewed.
func TestGroupedMergeParityAcrossModes(t *testing.T) {
	forceShards(t, 8)
	rng := rand.New(rand.NewSource(99))
	queries := []string{
		`SELECT x1, sum(x2), count(*) FROM s [RANGE 256 SLIDE 32] GROUP BY x1`,
		`SELECT x1, min(x2), max(x2) FROM s [RANGE 256 SLIDE 32] WHERE x2 > -500 GROUP BY x1`,
		`SELECT x1, avg(x2) FROM s [RANGE 256 SLIDE 32] WHERE x1 > 0 GROUP BY x1`,
	}
	domains := []int64{4, 64, 2048}
	for _, query := range queries {
		for _, domain := range domains {
			t.Run(fmt.Sprintf("%s/domain=%d", query, domain), func(t *testing.T) {
				type variant struct {
					name string
					opts Options
				}
				variants := []variant{
					{"inc-serial", Options{Mode: Incremental, Parallelism: 1}},
					{fmt.Sprintf("inc-par%d", 2+rng.Intn(7)), Options{Mode: Incremental}},
					{"reeval-serial", Options{Mode: Reevaluation, Parallelism: 1}},
					{"reeval-par4", Options{Mode: Reevaluation, Parallelism: 4}},
				}
				variants[1].opts.Parallelism = 2 + rng.Intn(7) // randomized shard count
				var results [][]*Result
				for _, v := range variants {
					e := newTestEngine(t)
					e.streamLog("s").SetSealRows(64) // windows span segments
					var c collector
					opts := v.opts
					opts.OnResult = c.add
					if _, err := e.Register(query, opts); err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					feedSkewed(t, e, "s", 7, 2048, 96, domain)
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
						if tableKey(a.Table, false) != tableKey(b.Table, false) {
							t.Fatalf("window %d differs (%s vs %s):\n%s\nvs\n%s",
								a.Window, variants[0].name, variants[vi].name, a.Table, b.Table)
						}
					}
				}
			})
		}
	}
}

// TestPartitionStatsSurfaced checks that a parallel grouped query reports
// the fragment / partition / merge breakdown: the partitioned re-group
// must be visible in the cumulative Stats (which must equal the sum of the
// per-result stage clocks) once the concatenated partials are large enough
// to shard. (max keeps the block re-grouped; an invertible block is
// delta-maintained and never shards.)
func TestPartitionStatsSurfaced(t *testing.T) {
	forceShards(t, 4)
	e := newTestEngine(t)
	var c collector
	q, err := e.Register(
		`SELECT x1, sum(x2), max(x2) FROM s [RANGE 4096 SLIDE 512] GROUP BY x1`,
		Options{Mode: Incremental, Parallelism: 4, OnResult: c.add})
	if err != nil {
		t.Fatal(err)
	}
	feedSkewed(t, e, "s", 11, 16384, 512, 100000)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	if len(c.results) == 0 {
		t.Fatal("no windows")
	}
	st := q.Stats()
	if st.MainNS <= 0 || st.PartitionNS <= 0 || st.MergeNS <= 0 || st.TotalNS < st.MainNS {
		t.Fatalf("stage clock: %+v", st.StepStats)
	}
	// Every emitted window's clock is part of the cumulative one (which also
	// covers the preface slides that emitted nothing).
	var emitted core.StepStats
	for _, r := range c.results {
		emitted.Add(r.Stats)
	}
	if emitted.PartitionNS <= 0 || emitted.PartitionNS > st.PartitionNS || emitted.TotalNS > st.TotalNS {
		t.Fatalf("per-result clocks %+v inconsistent with cumulative %+v", emitted, st.StepStats)
	}
	if st.BatchedSlides == 0 {
		t.Fatal("backlog did not drain in batches")
	}
}

// TestTimeWindowBatchParity covers the extended batching path: a pure
// time-based window draining a bursty event-time backlog must engage
// batched firing (precomputed successive boundaries) at Parallelism > 1 and
// emit windows identical to the sequential query — including ragged
// slides, empty slides (gaps in event time) and watermark-driven closes.
func TestTimeWindowBatchParity(t *testing.T) {
	const query = `SELECT x1, sum(x2), count(*) FROM s [RANGE 4 SECONDS SLIDE 1 SECONDS] GROUP BY x1`
	run := func(par int) ([]*Result, int64) {
		e := newTestEngine(t)
		e.streamLog("s").SetSealRows(32)
		var c collector
		q, err := e.Register(query, Options{Mode: Incremental, Parallelism: par, OnResult: c.add})
		if err != nil {
			t.Fatal(err)
		}
		// Bursty event-time feed: uneven tuple counts per slide period,
		// including empty periods, all appended before any pump so many
		// watermark-closed slides are buffered at once.
		rng := rand.New(rand.NewSource(5))
		ts := int64(1000)
		for burst := 0; burst < 40; burst++ {
			m := rng.Intn(60) // sometimes zero tuples in a period
			if m > 0 {
				x1 := make([]int64, m)
				x2 := make([]int64, m)
				tss := make([]int64, m)
				for i := range x1 {
					x1[i] = rng.Int63n(5)
					x2[i] = rng.Int63n(100)
					ts += rng.Int63n(50_000) // micros
					tss[i] = ts
				}
				if err := e.AppendColumns("s", []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, tss); err != nil {
					t.Fatal(err)
				}
			}
			ts += 300_000 + rng.Int63n(1_700_000)
		}
		if err := e.SetWatermark("s", ts+100000); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pump(); err != nil {
			t.Fatal(err)
		}
		return c.results, q.Stats().BatchedSlides
	}
	seq, seqBatched := run(1)
	par, parBatched := run(4)
	if seqBatched != 0 {
		t.Fatalf("sequential run batched %d slides", seqBatched)
	}
	if parBatched == 0 {
		t.Fatal("parallel run never took the time-window batch path")
	}
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("windows: seq %d par %d", len(seq), len(par))
	}
	for i := range seq {
		if tableKey(seq[i].Table, false) != tableKey(par[i].Table, false) {
			t.Fatalf("window %d differs:\nseq %s\npar %s", i+1, seq[i].Table, par[i].Table)
		}
	}
}

// TestPartitionedMergeRaceStress hammers the partitioned merge under the
// live scheduler: a wide-key grouped aggregation at Parallelism 8 while
// four producers append across segment boundaries. Meaningful under -race
// — shard workers re-group concurrently while receptors keep appending.
func TestPartitionedMergeRaceStress(t *testing.T) {
	forceShards(t, 8)
	e := newTestEngine(t)
	e.streamLog("s").SetSealRows(128)
	var mu sync.Mutex
	windows := 0
	q, err := e.Register(
		`SELECT x1, sum(x2), count(*) FROM s [RANGE 2048 SLIDE 256] GROUP BY x1`,
		Options{Mode: Incremental, Parallelism: 8, OnResult: func(*Result) {
			mu.Lock()
			windows++
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	const producers, batches, rows = 4, 24, 128
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for b := 0; b < batches; b++ {
				x1 := make([]int64, rows)
				x2 := make([]int64, rows)
				for i := range x1 {
					x1[i] = rng.Int63n(5000)
					x2[i] = rng.Int63n(1000)
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
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := windows
	mu.Unlock()
	want := producers*batches*rows/256 - 7 // slides minus preface
	if got != want {
		t.Fatalf("windows: got %d want %d", got, want)
	}
}

// TestReevaluationFloatParityAcrossParallelism pins the worker-count
// independence of re-evaluation float aggregates: summation order changes
// results for floats, so the split form must be used at every Parallelism
// setting — catastrophic-cancellation values across segment boundaries
// would otherwise produce different sums at par 1 vs par 4.
func TestReevaluationFloatParityAcrossParallelism(t *testing.T) {
	run := func(par int) string {
		e := New()
		if err := e.RegisterStream("fs", catalogSchemaFloat()); err != nil {
			t.Fatal(err)
		}
		e.streamLog("fs").SetSealRows(4) // many segments per window
		var c collector
		if _, err := e.Register(`SELECT sum(f), avg(f) FROM fs [RANGE 24 SLIDE 8]`,
			Options{Mode: Reevaluation, Parallelism: par, OnResult: c.add}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for b := 0; b < 12; b++ {
			f := make([]float64, 8)
			for i := range f {
				// Mix huge and tiny magnitudes so association matters.
				f[i] = rng.NormFloat64() * 1e16
				if i%2 == 1 {
					f[i] = rng.NormFloat64()
				}
			}
			if err := e.AppendColumns("fs", []*vector.Vector{vector.FromFloat64(f)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Pump(); err != nil {
			t.Fatal(err)
		}
		if len(c.results) == 0 {
			t.Fatal("no windows")
		}
		var key string
		for _, r := range c.results {
			key += tableKey(r.Table, false) + "|"
		}
		return key
	}
	want := run(1)
	for _, par := range []int{2, 4, 8} {
		if got := run(par); got != want {
			t.Fatalf("par %d float results differ:\n%s\nvs\n%s", par, got, want)
		}
	}
}

// TestReevaluationSplitParityUnderScheduler runs the segment-parallel
// re-evaluation path under the live scheduler against a deterministic
// serial replay of the same feed.
func TestReevaluationSplitParityUnderScheduler(t *testing.T) {
	const query = `SELECT x1, sum(x2) FROM s [RANGE 96 SLIDE 24] WHERE x1 > 1 GROUP BY x1`
	collect := func(par int, live bool) []*Result {
		e := newTestEngine(t)
		e.streamLog("s").SetSealRows(16)
		var mu sync.Mutex
		var c collector
		opts := Options{Mode: Reevaluation, Parallelism: par, OnResult: func(r *Result) {
			mu.Lock()
			c.add(r)
			mu.Unlock()
		}}
		q, err := e.Register(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if live {
			e.Start()
		}
		feedSkewed(t, e, "s", 3, 1200, 48, 32)
		if live {
			e.Stop()
		}
		if _, err := e.Pump(); err != nil {
			t.Fatal(err)
		}
		if err := q.Err(); err != nil {
			t.Fatal(err)
		}
		return c.results
	}
	want := collect(1, false)
	got := collect(6, true)
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("windows: serial %d parallel %d", len(want), len(got))
	}
	for i := range want {
		if tableKey(want[i].Table, false) != tableKey(got[i].Table, false) {
			t.Fatalf("window %d differs:\n%s\nvs\n%s", i+1, want[i].Table, got[i].Table)
		}
	}
}
