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

// This file measures intra-query parallelism (not a paper figure): one
// continuous query whose window splits into many independent basic
// windows drains a buffered backlog with 1..NumCPU fragment workers. The
// per-bw fragments of the buffered slides evaluate concurrently
// (core.Runtime.EvalFragments) while the merge stage stays serial, so wall
// time should drop toward the serial merge floor as workers grow — with
// bit-identical results at every worker count, which MeasureParallelSweep
// verifies via a result checksum. cmd/dcbench renders the table
// (-fig parallel) and can emit the machine-readable BENCH_parallel.json
// consumed by CI to track the perf trajectory.

// parallelQuery keeps per-basic-window work dominant (scan + filter +
// aggregate partials) and the merge trivial (re-aggregating n partials),
// the shape that exposes intra-query speedup.
const parallelQuery = `SELECT count(*), sum(x2), max(x2) FROM s [RANGE %d SLIDE %d] WHERE x1 > 100`

// ParallelPoint is one measured worker count.
type ParallelPoint struct {
	Workers      int     `json:"workers"`
	Windows      int     `json:"windows"`
	Tuples       int     `json:"tuples"`
	WallMS       float64 `json:"wall_ms"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	Speedup      float64 `json:"speedup_vs_1"`
	ResultSum    int64   `json:"result_checksum"`
	AllocPerStep float64 `json:"allocs_per_step"`
}

// MeasureParallel registers one incremental query with the given worker
// count, buffers slides complete window slides of slide tuples each, and
// measures the wall-clock time of the single Pump that drains them.
func MeasureParallel(workers, window, slide, slides int) (ParallelPoint, error) {
	p := ParallelPoint{Workers: workers}
	e := engine.New()
	if err := e.RegisterStream("s", intSchema()); err != nil {
		return p, err
	}
	var windows int
	var checksum int64
	opts := engine.Options{
		Mode:        engine.Incremental,
		Parallelism: workers,
		OnResult: func(r *engine.Result) {
			windows++
			for _, col := range r.Table.Cols {
				for i := 0; i < col.Len(); i++ {
					checksum = checksum*31 + col.Get(i).I
				}
			}
		},
	}
	if _, err := e.Register(fmt.Sprintf(parallelQuery, window, slide), opts); err != nil {
		return p, err
	}
	// Build the whole backlog first: intra-query parallelism engages when
	// multiple complete slides are buffered.
	gen := workload.NewGen(4242, x1Domain, 1000)
	total := slide * slides
	for off := 0; off < total; off += slide {
		if err := e.AppendColumns("s", gen.Next(slide), nil); err != nil {
			return p, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	steps, err := e.Pump()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return p, err
	}
	if steps != slides {
		return p, fmt.Errorf("bench: drained %d steps, want %d", steps, slides)
	}
	p.Windows = windows
	p.Tuples = total
	p.WallMS = float64(elapsed.Nanoseconds()) / 1e6
	p.NsPerTuple = float64(elapsed.Nanoseconds()) / float64(total)
	p.ResultSum = checksum
	p.AllocPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(steps)
	return p, nil
}

// ParallelWorkerCounts returns the standard sweep: 1, 2 and 4 workers,
// plus NumCPU when larger. Worker counts above NumCPU are still measured —
// they cannot speed up, but the sweep's checksum cross-check (identical
// results at every count) is the point on small hosts.
func ParallelWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if ncpu := runtime.NumCPU(); ncpu > 4 {
		counts = append(counts, ncpu)
	}
	return counts
}

// MeasureParallelSweep measures every worker count and verifies the
// result checksums are identical across the sweep (parallel evaluation
// must be bit-identical to sequential).
func MeasureParallelSweep(window, slide, slides int) ([]ParallelPoint, error) {
	var points []ParallelPoint
	for _, workers := range ParallelWorkerCounts() {
		pt, err := MeasureParallel(workers, window, slide, slides)
		if err != nil {
			return nil, err
		}
		if len(points) > 0 {
			pt.Speedup = points[0].WallMS / pt.WallMS
			if pt.ResultSum != points[0].ResultSum {
				return nil, fmt.Errorf("bench: workers=%d checksum %d differs from workers=%d checksum %d",
					pt.Workers, pt.ResultSum, points[0].Workers, points[0].ResultSum)
			}
		} else {
			pt.Speedup = 1
		}
		points = append(points, pt)
	}
	return points, nil
}

// ParallelParams derives the sweep size from the config: at Scale 1 the
// window holds 2^22 tuples across 16 basic windows with a 64-slide
// backlog; -scale divides the window as usual.
func ParallelParams(cfg Config) (window, slide, slides int) {
	window, slide = cfg.sized(1<<22, 16)
	return window, slide, 64
}

// RunParallel regenerates the intra-query parallelism table.
func RunParallel(cfg Config) (*Table, error) {
	window, slide, slides := ParallelParams(cfg)
	points, err := MeasureParallelSweep(window, slide, slides)
	if err != nil {
		return nil, err
	}
	return ParallelTable(points, window, slide, slides), nil
}

// ParallelTable renders measured parallel points as a dcbench table.
func ParallelTable(points []ParallelPoint, window, slide, slides int) *Table {
	t := &Table{
		Figure: "Parallel",
		Title: fmt.Sprintf("intra-query parallelism: |W|=%d, |w|=%d (%d basic windows), %d-slide backlog",
			window, slide, window/slide, slides),
		Header: []string{"workers", "wall_ms", "ns_per_tuple", "speedup_vs_1", "allocs_per_step"},
		Notes:  "(per-bw fragments of buffered slides evaluate concurrently; results bit-identical at every worker count)",
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Workers),
			fmt.Sprintf("%.1f", p.WallMS),
			fmt.Sprintf("%.1f", p.NsPerTuple),
			fmt.Sprintf("%.2f", p.Speedup),
			fmt.Sprintf("%.1f", p.AllocPerStep),
		})
	}
	return t
}

// WriteParallelJSON writes measured parallel points as BENCH_parallel.json
// into dir — the machine-readable form CI archives to track the perf
// trajectory across commits.
func WriteParallelJSON(points []ParallelPoint, dir string) (string, error) {
	blob, err := json.MarshalIndent(struct {
		Bench  string          `json:"bench"`
		Points []ParallelPoint `json:"points"`
	}{Bench: "parallel", Points: points}, "", "  ")
	if err != nil {
		return "", err
	}
	path := dir + string(os.PathSeparator) + "BENCH_parallel.json"
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
