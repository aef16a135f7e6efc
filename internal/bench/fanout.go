package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"datacell/internal/engine"
	"datacell/internal/workload"
)

// This file measures ingest fanout (not a paper figure): with the shared
// per-stream segment store, a receptor appends each tuple exactly once no
// matter how many standing queries subscribe, so per-tuple ingest cost
// must stay ~flat as the query count grows — where the old
// private-basket-per-query design grew linearly in Q. cmd/dcbench renders
// the table (-fig fanout) and can emit the machine-readable
// BENCH_fanout.json consumed by CI to track the perf trajectory.

// fanoutQuery parks a huge count window on the stream so appends do real
// receptor work (cursor bookkeeping, wake-ups) but windows never fire —
// the measurement isolates ingest cost from query processing.
const fanoutQuery = `SELECT count(*) FROM s [RANGE 1000000000 SLIDE 1000000000]`

// FanoutPoint is one measured query count.
type FanoutPoint struct {
	Queries        int     `json:"queries"`
	NsPerTuple     float64 `json:"ns_per_tuple"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
	MBPerSec       float64 `json:"mb_per_sec"`
	Tuples         int     `json:"tuples"`
}

// MeasureFanout appends batches rows-per-batch columnar batches into one
// stream with nQueries subscribed standing queries and returns the
// per-tuple ingest cost.
func MeasureFanout(nQueries, rowsPerBatch, batches int) (FanoutPoint, error) {
	p := FanoutPoint{Queries: nQueries}
	e := engine.New()
	if err := e.RegisterStream("s", intSchema()); err != nil {
		return p, err
	}
	for i := 0; i < nQueries; i++ {
		if _, err := register(e, fanoutQuery, engine.Reevaluation, engine.Options{}); err != nil {
			return p, err
		}
	}
	gen := workload.NewGen(77, x1Domain, 1000)
	cols := gen.Next(rowsPerBatch)
	// Warm up (first segment allocation, wake channels).
	if err := e.AppendColumns("s", cols, nil); err != nil {
		return p, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		if err := e.AppendColumns("s", cols, nil); err != nil {
			return p, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	tuples := batches * rowsPerBatch
	p.Tuples = tuples
	p.NsPerTuple = float64(elapsed.Nanoseconds()) / float64(tuples)
	p.AllocsPerTuple = float64(m1.Mallocs-m0.Mallocs) / float64(tuples)
	bytes := float64(tuples) * 16 // two int64 columns
	p.MBPerSec = bytes / 1e6 / elapsed.Seconds()
	return p, nil
}

// FanoutQueryCounts is the standard sweep: ingest cost at 1, 4, 16 and 64
// subscribed queries on one stream.
var FanoutQueryCounts = []int{1, 4, 16, 64}

// MeasureFanoutSweep measures every query count in FanoutQueryCounts.
func MeasureFanoutSweep(rowsPerBatch, batches int) ([]FanoutPoint, error) {
	points := make([]FanoutPoint, 0, len(FanoutQueryCounts))
	for _, nq := range FanoutQueryCounts {
		pt, err := MeasureFanout(nq, rowsPerBatch, batches)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// FanoutParams derives the sweep size from the config: Scale divides the
// default 2048 batches of 1024 tuples (Scale 1 = the full 2M-tuple run),
// following the same "-scale divides the paper sizes" convention as the
// figure benchmarks.
func FanoutParams(cfg Config) (rowsPerBatch, batches int) {
	return 1024, cfg.scale(2048)
}

// RunFanout regenerates the ingest-fanout table.
func RunFanout(cfg Config) (*Table, error) {
	rows, batches := FanoutParams(cfg)
	points, err := MeasureFanoutSweep(rows, batches)
	if err != nil {
		return nil, err
	}
	return FanoutTable(points, rows*batches), nil
}

// FanoutTable renders measured fanout points as a dcbench table.
func FanoutTable(points []FanoutPoint, tuplesPerPoint int) *Table {
	t := &Table{
		Figure: "Fanout",
		Title:  fmt.Sprintf("per-tuple ingest cost vs subscribed queries (%d tuples/point, shared segment store)", tuplesPerPoint),
		Header: []string{"queries", "ns_per_tuple", "allocs_per_tuple", "mb_per_s"},
		Notes:  "(one-copy ingest: cost must stay ~flat as queries grow)",
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Queries),
			fmt.Sprintf("%.1f", p.NsPerTuple),
			fmt.Sprintf("%.3f", p.AllocsPerTuple),
			fmt.Sprintf("%.1f", p.MBPerSec),
		})
	}
	return t
}

// --- processing fanout: per-slide wall-clock vs subscriber count ----------

// fanoutSlideQuery is the shared-plan workload shape: every query computes
// the same per-slide fragment (filterless grouped sum at one slide size),
// the window length alternates between two values (two merge-tail
// cliques) and the HAVING threshold varies per query (each clique's
// queries differ only in the residual constant). With the shared-plan
// catalog every slide's fragment is evaluated once and fanned out, and each
// clique's grouped re-group runs once per window end; as engine
// Options.Baseline each of the Q queries re-evaluates everything.
const fanoutSlideQuery = `SELECT x1, sum(x2) FROM s [RANGE %d SLIDE %d] GROUP BY x1 HAVING sum(x2) > %d`

// FanoutSlideQueryCounts is the standard sweep for the shared-plan
// catalog: per-slide processing cost at 1, 64 and 1024 subscribed
// queries.
var FanoutSlideQueryCounts = []int{1, 64, 1024}

// FanoutSlidePoint is one measured query count: wall-clock per stream
// slide draining the same backlog shared (fragments + merge tails, the
// engine default) and private (Options.Baseline — linear in Q).
type FanoutSlidePoint struct {
	Queries           int     `json:"queries"`
	Slides            int     `json:"slides"`
	SharedNsPerSlide  float64 `json:"shared_ns_per_slide"`
	PrivateNsPerSlide float64 `json:"private_ns_per_slide"`
	Speedup           float64 `json:"private_over_shared"`
}

// MeasureFanoutSlides registers nQueries fragment-sharing queries
// (window length alternates, HAVING threshold varies, the pre-merge
// fragment is identical), buffers slides stream slides, and times the
// Pump that drains them. Returns wall-clock nanoseconds per stream
// slide.
func MeasureFanoutSlides(nQueries, window, slide, slides int, baseline bool) (float64, error) {
	e := engine.New()
	if err := e.RegisterStream("s", intSchema()); err != nil {
		return 0, err
	}
	windows := 0
	for i := 0; i < nQueries; i++ {
		q := fmt.Sprintf(fanoutSlideQuery, window*(1+i%2), slide, i)
		opts := engine.Options{
			Mode:     engine.Incremental,
			Baseline: baseline,
			OnResult: func(*engine.Result) { windows++ },
		}
		if _, err := e.Register(q, opts); err != nil {
			return 0, err
		}
	}
	// Large key domain: the grouped re-group in the merge tail carries
	// real weight, so the sweep exposes both sharing layers — the
	// fragment dedup and the merge-tail dedup.
	gen := workload.NewGen(1234, 4096, 1000)
	for i := 0; i < slides; i++ {
		if err := e.AppendColumns("s", gen.Next(slide), nil); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if _, err := e.Pump(); err != nil {
		return 0, err
	}
	elapsed := time.Since(t0)
	if windows == 0 {
		return 0, fmt.Errorf("bench: fanout slide drain fired no windows")
	}
	return float64(elapsed.Nanoseconds()) / float64(slides), nil
}

// MeasureFanoutSlideSweep measures shared and private drains for every
// query count in FanoutSlideQueryCounts. Sharing must hold the per-slide
// cost ~flat from 1 to 1024 queries while the private baseline grows
// linearly.
func MeasureFanoutSlideSweep(window, slide, slides int) ([]FanoutSlidePoint, error) {
	points := make([]FanoutSlidePoint, 0, len(FanoutSlideQueryCounts))
	for _, nq := range FanoutSlideQueryCounts {
		shared, err := MeasureFanoutSlides(nq, window, slide, slides, false)
		if err != nil {
			return nil, err
		}
		priv, err := MeasureFanoutSlides(nq, window, slide, slides, true)
		if err != nil {
			return nil, err
		}
		points = append(points, FanoutSlidePoint{
			Queries:           nq,
			Slides:            slides,
			SharedNsPerSlide:  shared,
			PrivateNsPerSlide: priv,
			Speedup:           priv / shared,
		})
	}
	return points, nil
}

// FanoutSlideParams derives the slide sweep size from the config: at
// Scale 1 a 2^20-tuple window over 2 basic windows — few large basic
// windows keep the per-query merge tail small relative to the per-slide
// fragment work the registry deduplicates. The backlog holds three fills
// of the widest registered window (2x RANGE), so every query in the sweep
// emits windows during the measured drain.
func FanoutSlideParams(cfg Config) (window, slide, slides int) {
	window, slide = cfg.sized(1<<20, 2)
	return window, slide, 3 * (window / slide) * 2
}

// FanoutSlideTable renders the measured slide points as a dcbench table.
func FanoutSlideTable(points []FanoutSlidePoint, window, slide int) *Table {
	t := &Table{
		Figure: "FanoutSlides",
		Title: fmt.Sprintf("per-slide wall-clock vs subscribed queries (|W|=%d, |w|=%d, shared-plan catalog vs private evaluation)",
			window, slide),
		Header: []string{"queries", "shared_ms_per_slide", "private_ms_per_slide", "private/shared"},
		Notes:  "(fragments and merge tails interned per stream: shared cost must stay ~flat in the query count, private grows linearly)",
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Queries),
			fmt.Sprintf("%.3f", p.SharedNsPerSlide/1e6),
			fmt.Sprintf("%.3f", p.PrivateNsPerSlide/1e6),
			fmt.Sprintf("%.2f", p.Speedup),
		})
	}
	return t
}

// WriteFanoutJSON writes measured fanout points (ingest sweep plus the
// optional shared-plan slide sweep) as BENCH_fanout.json into dir — the
// machine-readable form CI archives to track the perf trajectory across
// commits.
func WriteFanoutJSON(points []FanoutPoint, slidePoints []FanoutSlidePoint, dir string) (string, error) {
	blob, err := json.MarshalIndent(struct {
		Bench       string             `json:"bench"`
		Meta        RunMeta            `json:"meta"`
		Points      []FanoutPoint      `json:"points"`
		SlidePoints []FanoutSlidePoint `json:"slide_points,omitempty"`
	}{Bench: "fanout", Meta: NewRunMeta(), Points: points, SlidePoints: slidePoints}, "", "  ")
	if err != nil {
		return "", err
	}
	path := dir + string(os.PathSeparator) + "BENCH_fanout.json"
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
