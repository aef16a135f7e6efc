package datacell_test

import (
	"fmt"
	"math/rand"
	"testing"

	"datacell"
	"datacell/internal/bench"
)

// Figure benchmarks: each regenerates one of the paper's tables/figures
// per benchmark iteration at a reduced scale (testing.B wants short
// iterations; use cmd/dcbench for full-scale tables). The per-op time is
// the cost of regenerating the whole figure once.

func benchFigure(b *testing.B, run func(bench.Config) (*bench.Table, error), cfg bench.Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("figure produced no rows")
		}
	}
}

// BenchmarkFig4aBasicPerformanceQ1 regenerates Fig 4(a): Q1 response time
// per window, DataCellR vs DataCell.
func BenchmarkFig4aBasicPerformanceQ1(b *testing.B) {
	benchFigure(b, bench.RunFig4a, bench.Config{Scale: 256, Windows: 5})
}

// BenchmarkFig4bBasicPerformanceQ2 regenerates Fig 4(b): the join query.
func BenchmarkFig4bBasicPerformanceQ2(b *testing.B) {
	benchFigure(b, bench.RunFig4b, bench.Config{Scale: 256, Windows: 5})
}

// BenchmarkFig5aVarySelectivity regenerates Fig 5(a).
func BenchmarkFig5aVarySelectivity(b *testing.B) {
	benchFigure(b, bench.RunFig5a, bench.Config{Scale: 1024, Windows: 3})
}

// BenchmarkFig5bVaryJoinSelectivity regenerates Fig 5(b).
func BenchmarkFig5bVaryJoinSelectivity(b *testing.B) {
	benchFigure(b, bench.RunFig5b, bench.Config{Scale: 1024, Windows: 3})
}

// BenchmarkFig6aVaryWindowSize regenerates Fig 6(a).
func BenchmarkFig6aVaryWindowSize(b *testing.B) {
	benchFigure(b, bench.RunFig6a, bench.Config{Scale: 2048, Windows: 3})
}

// BenchmarkFig6bLandmark regenerates Fig 6(b): the landmark query Q3.
func BenchmarkFig6bLandmark(b *testing.B) {
	benchFigure(b, bench.RunFig6b, bench.Config{Scale: 2048, Windows: 10})
}

// BenchmarkFig7aBasicWindowsQ1 regenerates Fig 7(a): cost vs number of
// basic windows with the main/merge breakdown.
func BenchmarkFig7aBasicWindowsQ1(b *testing.B) {
	benchFigure(b, bench.RunFig7a, bench.Config{Scale: 1024, Windows: 3})
}

// BenchmarkFig7bBasicWindowsQ2 regenerates Fig 7(b) for the join query.
func BenchmarkFig7bBasicWindowsQ2(b *testing.B) {
	benchFigure(b, bench.RunFig7b, bench.Config{Scale: 1024, Windows: 3})
}

// BenchmarkFig8AdaptiveChunking regenerates Fig 8: the self-adapting
// chunked processing of the newest basic window.
func BenchmarkFig8AdaptiveChunking(b *testing.B) {
	benchFigure(b, bench.RunFig8, bench.Config{Scale: 1024, Windows: 30})
}

// BenchmarkFig9AgainstStreamEngine regenerates Fig 9: full stack (csv,
// loading, processing) against the tuple-at-a-time SystemX stand-in.
func BenchmarkFig9AgainstStreamEngine(b *testing.B) {
	benchFigure(b, bench.RunFig9, bench.Config{Scale: 2048, Windows: 10})
}

// BenchmarkFig9InsetLoadingBreakdown regenerates the Section 4.2 cost
// breakdown inset (loading vs query processing).
func BenchmarkFig9InsetLoadingBreakdown(b *testing.B) {
	benchFigure(b, bench.RunFig9Inset, bench.Config{Scale: 2048, Windows: 10})
}

// BenchmarkMultiQueryScaling regenerates the scheduler scaling table:
// N independent queries drained by the serial Pump vs the concurrent
// PumpParallel (see also cmd/dcbench -fig scaling).
func BenchmarkMultiQueryScaling(b *testing.B) {
	benchFigure(b, bench.RunScaling, bench.Config{Scale: 1024, Windows: 3})
}

// BenchmarkMultiQuerySerial and BenchmarkMultiQueryParallel time one drain
// of 4 independent Q1-shaped queries under each scheduler form; compare
// the two ns/op to see the concurrency win directly (setup is included in
// both identically).
func BenchmarkMultiQuerySerial(b *testing.B)   { benchMultiQuery(b, false) }
func BenchmarkMultiQueryParallel(b *testing.B) { benchMultiQuery(b, true) }

func benchMultiQuery(b *testing.B, parallel bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.MeasureDrain(4, 1<<14, 1<<11, 4, parallel); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the public API -----------------------------------

// BenchmarkIncrementalStepQ1 measures one steady-state incremental slide
// of the paper's Q1 (window 64k, step 1k).
func BenchmarkIncrementalStepQ1(b *testing.B) {
	benchStepQ1(b, datacell.Incremental)
}

// BenchmarkReevaluationStepQ1 measures one steady-state re-evaluation
// slide of Q1 at the same parameters — the DataCellR baseline.
func BenchmarkReevaluationStepQ1(b *testing.B) {
	benchStepQ1(b, datacell.Reevaluation)
}

func benchStepQ1(b *testing.B, mode datacell.Mode) {
	b.ReportAllocs()
	db := datacell.New()
	db.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
	q, err := db.Register(`SELECT x1, sum(x2) FROM s [RANGE 65536 SLIDE 1024] WHERE x1 > 199 GROUP BY x1`,
		datacell.Options{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	step := func(n int) {
		rows := make([][]datacell.Value, n)
		for i := range rows {
			rows[i] = []datacell.Value{datacell.Int(rng.Int63n(1000)), datacell.Int(rng.Int63n(1000))}
		}
		if err := db.Append("s", rows...); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Pump(); err != nil {
			b.Fatal(err)
		}
	}
	step(65536) // fill the first window
	if q.Windows() != 1 {
		b.Fatalf("priming failed: %d windows", q.Windows())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(1024)
	}
}

// BenchmarkAppendThroughput measures raw receptor-side loading.
func BenchmarkAppendThroughput(b *testing.B) {
	b.ReportAllocs()
	db := datacell.New()
	db.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
	if _, err := db.Register(`SELECT count(*) FROM s [RANGE 1000000 SLIDE 1000000]`, datacell.Options{}); err != nil {
		b.Fatal(err)
	}
	rows := make([][]datacell.Value, 1000)
	for i := range rows {
		rows[i] = []datacell.Value{datacell.Int(int64(i)), datacell.Int(int64(i))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Append("s", rows...); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(rows)) * 16)
}

// BenchmarkIngest compares the two public ingest paths loading the same
// 1000-tuple, two-int64-column step into a subscribed stream, starting
// from raw []int64 data:
//
//   - RowAppend: the compatibility path — box every field as a Value,
//     build [][]Value rows, Append (the engine transposes back to columns).
//   - Batch: fill a reused Batch via typed appenders, AppendBatch.
//   - BatchSlice: same, but with one bulk AppendSlice per column.
//
// The batch paths must beat the row path by >= 2x on allocs/op; MB/s is
// reported via B.SetBytes.
func BenchmarkIngest(b *testing.B) {
	const rows = 1000
	x1 := make([]int64, rows)
	x2 := make([]int64, rows)
	for i := range x1 {
		x1[i] = int64(i % 1000)
		x2[i] = int64(i)
	}
	setup := func(b *testing.B) *datacell.DB {
		b.Helper()
		db := datacell.New()
		db.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
		// A subscribed query with a huge window: every append lands in a
		// basket (real receptor work) but windows never fire mid-benchmark.
		if _, err := db.Register(`SELECT count(*) FROM s [RANGE 1000000000 SLIDE 1000000000]`, datacell.Options{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(rows * 16)
		return db
	}

	b.Run("RowAppend", func(b *testing.B) {
		db := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := make([][]datacell.Value, rows)
			for j := 0; j < rows; j++ {
				batch[j] = []datacell.Value{datacell.Int(x1[j]), datacell.Int(x2[j])}
			}
			if err := db.Append("s", batch...); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Batch", func(b *testing.B) {
		db := setup(b)
		batch, err := db.NewBatch("s")
		if err != nil {
			b.Fatal(err)
		}
		c1, c2 := batch.Int64Col("x1"), batch.Int64Col("x2")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch.Reset()
			for j := 0; j < rows; j++ {
				c1.Append(x1[j])
				c2.Append(x2[j])
			}
			if err := db.AppendBatch("s", batch); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("BatchSlice", func(b *testing.B) {
		db := setup(b)
		batch, err := db.NewBatch("s")
		if err != nil {
			b.Fatal(err)
		}
		c1, c2 := batch.Int64Col("x1"), batch.Int64Col("x2")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch.Reset()
			c1.AppendSlice(x1)
			c2.AppendSlice(x2)
			if err := db.AppendBatch("s", batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFanout measures per-tuple ingest cost as the number of standing
// queries subscribed to one stream grows (1, 4, 16, 64). The shared
// segment store appends each batch exactly once regardless of the
// subscriber count, so ns/op and allocs/op must stay ~flat in the query
// count — the old one-private-basket-per-query delivery grew linearly.
// See also cmd/dcbench -fig fanout (and its BENCH_fanout.json).
func BenchmarkFanout(b *testing.B) {
	const rows = 1000
	x1 := make([]int64, rows)
	x2 := make([]int64, rows)
	for i := range x1 {
		x1[i] = int64(i % 1000)
		x2[i] = int64(i)
	}
	for _, nq := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("queries=%d", nq), func(b *testing.B) {
			db := datacell.New()
			db.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
			for i := 0; i < nq; i++ {
				// Huge windows: every append does real receptor work but
				// windows never fire, isolating ingest from processing.
				if _, err := db.Register(`SELECT count(*) FROM s [RANGE 1000000000 SLIDE 1000000000]`, datacell.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			batch, err := db.NewBatch("s")
			if err != nil {
				b.Fatal(err)
			}
			c1, c2 := batch.Int64Col("x1"), batch.Int64Col("x2")
			b.ReportAllocs()
			b.SetBytes(rows * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Reset()
				c1.AppendSlice(x1)
				c2.AppendSlice(x2)
				if err := db.AppendBatch("s", batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFanoutSlides measures per-slide wall-clock draining the same
// backlog with 1 vs 16 fragment-sharing queries, sharing on vs off. With
// the shared-plan catalog the per-slide cost must stay ~flat in the query
// count; the private baseline re-evaluates the fragment per query. CI runs
// the full 1/64/1024 sweep via cmd/dcbench -fig fanout (BENCH_fanout.json).
func BenchmarkFanoutSlides(b *testing.B) {
	arms := []struct {
		label    string
		baseline bool
	}{
		{"shared", false},
		{"private", true},
	}
	for _, nq := range []int{1, 16} {
		for _, m := range arms {
			b.Run(fmt.Sprintf("queries=%d/%s", nq, m.label), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bench.MeasureFanoutSlides(nq, 4096, 512, 24, m.baseline); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func ExampleDB() {
	db := datacell.New()
	db.MustRegisterStream("s", datacell.Col("k", datacell.Int64), datacell.Col("v", datacell.Int64))
	q, _ := db.Register(`SELECT k, sum(v) FROM s [RANGE 4 SLIDE 4] GROUP BY k ORDER BY k`, datacell.Options{})
	_ = db.Append("s",
		[]datacell.Value{datacell.Int(1), datacell.Int(10)}, []datacell.Value{datacell.Int(2), datacell.Int(20)},
		[]datacell.Value{datacell.Int(1), datacell.Int(30)}, []datacell.Value{datacell.Int(2), datacell.Int(40)})
	_, _ = db.Pump()
	for _, r := range q.Results() {
		fmt.Print(r.Table)
	}
	// Output:
	// k	sum(v)
	// 1	40
	// 2	60
}
