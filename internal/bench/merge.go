package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"datacell/internal/engine"
	"datacell/internal/vector"
	"datacell/internal/workload"
)

// This file measures the grouped merge stage (not a paper figure): one
// grouped continuous query drains a buffered backlog while the merge stage
// runs through the seed-style serial instruction path (throwaway map
// grouping per firing; the baseline), or through the kernel the runtime
// picks for the query's shape at 1..N workers. Two query shapes are swept,
// because they take different kernels and every point is tagged with the
// one that ran:
//
//   - sum, count(*): every compensating aggregate is invertible, so the
//     block is delta-maintained — per-key totals kept across slides, no
//     re-group, no scatter or stitch at any worker count;
//   - sum, count(*), max: max has no inverse, so the block re-groups the
//     concatenated partials every slide through the fused kernel
//     (reusable hashtables, hash-partitioned across the worker pool when
//     the host has schedulable CPUs to overlap shards on) — the arm that
//     keeps the parallel scatter/shard/stitch numbers measured.
//
// The sweep crosses key-domain sizes with worker counts: small domains
// keep the merge cheap (fragments dominate), large domains make the merge
// the bottleneck. Every cell is checksum-verified against the baseline of
// the same shape and domain — every kernel must be bit-identical.
// cmd/dcbench renders the table (-fig merge) and can emit the
// machine-readable BENCH_merge.json consumed by CI.

// mergeShapes keep per-group work trivial so the grouped merge itself
// dominates at large key domains. Aggs names the shape in MergePoint.
var mergeShapes = []struct{ Aggs, Query string }{
	{"sum,count", `SELECT x1, sum(x2), count(*) FROM s [RANGE %d SLIDE %d] GROUP BY x1`},
	{"sum,count,max", `SELECT x1, sum(x2), count(*), max(x2) FROM s [RANGE %d SLIDE %d] GROUP BY x1`},
}

// MergePoint is one measured (shape, key domain, worker count) cell.
// Baseline marks the seed-style serial-merge run (grouped-merge kernels
// disabled) that anchors the speedup columns of its shape and key domain.
// Kernel is the merge kernel the run's grouped block actually took
// (core.MergeDelta, MergeFused, MergeIndex or MergeInstruction).
type MergePoint struct {
	Aggs         string  `json:"aggs"`
	Kernel       string  `json:"kernel"`
	Keys         int     `json:"key_domain"`
	Workers      int     `json:"workers"`
	Baseline     bool    `json:"serial_baseline,omitempty"`
	Windows      int     `json:"windows"`
	Tuples       int     `json:"tuples"`
	WallMS       float64 `json:"wall_ms"`
	FragmentMS   float64 `json:"fragment_ms"`
	ScatterMS    float64 `json:"scatter_ms"`
	PartitionMS  float64 `json:"partition_ms"`
	StitchMS     float64 `json:"stitch_ms"`
	MergeMS      float64 `json:"merge_ms"`
	MergeSpeedup float64 `json:"merge_speedup_vs_serial"`
	Speedup      float64 `json:"speedup_vs_serial"`
	ResultSum    int64   `json:"result_checksum"`
	AllocPerStep float64 `json:"allocs_per_step"`
}

// MeasureMerge registers one grouped incremental query of the given shape
// (an index into the sweep's two shapes: 0 invertible, 1 with max) with the
// given worker count and key domain, buffers the whole backlog, and
// measures the single Pump that drains it, splitting time by stage (the
// query stage clock).
func MeasureMerge(shape, workers, keys, window, slide, slides int, baseline bool) (MergePoint, error) {
	p := MergePoint{Aggs: mergeShapes[shape].Aggs, Keys: keys, Workers: workers, Baseline: baseline}
	// The runtime caps shard counts at GOMAXPROCS (shards beyond schedulable
	// CPUs only add stitch overhead), so raise it to the measured worker
	// count for the duration — on small hosts the sweep then still
	// exercises the scatter/stitch machinery, and the checksum cross-check
	// against the serial baseline keeps it honest (results are
	// bit-identical at any worker count by construction).
	if prev := runtime.GOMAXPROCS(0); workers > prev {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
	}
	e := engine.New()
	if err := e.RegisterStream("s", intSchema()); err != nil {
		return p, err
	}
	var windows int
	var checksum int64
	opts := engine.Options{
		Mode:        engine.Incremental,
		Parallelism: workers,
		Baseline:    baseline,
		OnResult: func(r *engine.Result) {
			windows++
			// Typed column walks: the boxed Get path costs more than the
			// merge stage itself at large key domains, drowning the very
			// effect this bench measures.
			for _, col := range r.Table.Cols {
				switch col.Type() {
				case vector.Int64, vector.Timestamp:
					for _, v := range col.Int64s() {
						checksum = checksum*31 + v
					}
				default:
					for i := 0; i < col.Len(); i++ {
						checksum = checksum*31 + col.Get(i).I
					}
				}
			}
		},
	}
	q, err := e.Register(fmt.Sprintf(mergeShapes[shape].Query, window, slide), opts)
	if err != nil {
		return p, err
	}
	p.Kernel = strings.Join(q.MergeKernels(), ",")
	gen := workload.NewGen(1717, int64(keys), 1000)
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
	st := q.Stats()
	p.Windows = windows
	p.Tuples = total
	p.WallMS = float64(elapsed.Nanoseconds()) / 1e6
	p.FragmentMS = float64(st.MainNS) / 1e6
	p.ScatterMS = float64(st.ScatterNS) / 1e6
	p.PartitionMS = float64(st.PartitionNS) / 1e6
	p.StitchMS = float64(st.StitchNS) / 1e6
	p.MergeMS = float64(st.MergeNS) / 1e6
	p.ResultSum = checksum
	p.AllocPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(steps)
	return p, nil
}

// MergeWorkerCounts returns the merge sweep's worker counts: 1, 2, 4 and 8
// plus NumCPU when larger. Counts above NumCPU are still measured —
// MeasureMerge raises GOMAXPROCS for the run, so the scatter/stitch
// machinery is exercised (and checksum-verified) even on small hosts.
func MergeWorkerCounts() []int {
	counts := []int{1, 2, 4, 8}
	if ncpu := runtime.NumCPU(); ncpu > 8 {
		counts = append(counts, ncpu)
	}
	return counts
}

// MergeKeyDomains returns the swept key-domain sizes relative to the
// window: a small hot set (merge negligible), a mid-size domain, and a
// domain of window order (every basic window contributes mostly distinct
// keys — the heavy-compensation shape).
func MergeKeyDomains(window int) []int {
	small := 16
	mid := window / 64
	if mid <= small {
		mid = small * 4
	}
	large := window
	return []int{small, mid, large}
}

// MeasureMergeSweep measures, per query shape and key domain, the
// seed-serial baseline plus every worker count, verifies result checksums
// match across all cells of the shape and domain, and anchors the speedup
// columns on the baseline's merge-stage and wall times.
func MeasureMergeSweep(window, slide, slides int) ([]MergePoint, error) {
	var points []MergePoint
	for shape := range mergeShapes {
		for _, keys := range MergeKeyDomains(window) {
			base, err := MeasureMerge(shape, 1, keys, window, slide, slides, true)
			if err != nil {
				return nil, err
			}
			base.Speedup = 1
			base.MergeSpeedup = 1
			points = append(points, base)
			for _, workers := range MergeWorkerCounts() {
				pt, err := MeasureMerge(shape, workers, keys, window, slide, slides, false)
				if err != nil {
					return nil, err
				}
				if pt.ResultSum != base.ResultSum {
					return nil, fmt.Errorf("bench: %s keys=%d workers=%d checksum %d differs from serial baseline %d",
						pt.Aggs, keys, pt.Workers, pt.ResultSum, base.ResultSum)
				}
				pt.Speedup = base.WallMS / pt.WallMS
				if m := pt.ScatterMS + pt.PartitionMS + pt.StitchMS + pt.MergeMS; m > 0 {
					pt.MergeSpeedup = (base.PartitionMS + base.MergeMS) / m
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// MergeParams derives the sweep size from the config: at Scale 1 the
// window holds 2^22 tuples across 16 basic windows with a 48-slide
// backlog.
func MergeParams(cfg Config) (window, slide, slides int) {
	window, slide = cfg.sized(1<<22, 16)
	return window, slide, 48
}

// RunMerge regenerates the grouped-merge table.
func RunMerge(cfg Config) (*Table, error) {
	window, slide, slides := MergeParams(cfg)
	points, err := MeasureMergeSweep(window, slide, slides)
	if err != nil {
		return nil, err
	}
	return MergeTable(points, window, slide, slides), nil
}

// MergeTable renders measured merge points as a dcbench table.
func MergeTable(points []MergePoint, window, slide, slides int) *Table {
	t := &Table{
		Figure: "Merge",
		Title: fmt.Sprintf("grouped merge kernels: |W|=%d, |w|=%d, %d-slide backlog, shapes x key domains x workers",
			window, slide, slides),
		Header: []string{"aggs", "kernel", "keys", "workers", "wall_ms", "fragment_ms", "scatter_ms", "partition_ms", "stitch_ms", "merge_ms", "merge_speedup", "speedup", "allocs_per_step"},
		Notes:  "(serial = seed-style instruction merge, the speedup anchor of its shape and domain; merge_speedup compares the merge stage — scatter + partition + stitch + serial remainder — against it; kernel = what the grouped block ran: delta keeps per-key totals across slides and never shards, fused re-groups every slide; checksums verified identical across every cell of a shape)",
	}
	for _, p := range points {
		workers := fmt.Sprint(p.Workers)
		if p.Baseline {
			workers = "serial"
		}
		t.Rows = append(t.Rows, []string{
			p.Aggs,
			p.Kernel,
			fmt.Sprint(p.Keys),
			workers,
			fmt.Sprintf("%.1f", p.WallMS),
			fmt.Sprintf("%.1f", p.FragmentMS),
			fmt.Sprintf("%.1f", p.ScatterMS),
			fmt.Sprintf("%.1f", p.PartitionMS),
			fmt.Sprintf("%.1f", p.StitchMS),
			fmt.Sprintf("%.1f", p.MergeMS),
			fmt.Sprintf("%.2f", p.MergeSpeedup),
			fmt.Sprintf("%.2f", p.Speedup),
			fmt.Sprintf("%.1f", p.AllocPerStep),
		})
	}
	return t
}

// MergeRunMeta records the run environment alongside the measured points,
// so a BENCH_merge.json is interpretable without the machine that made it:
// the host's CPU budget, the swept worker counts, the ingest seal
// threshold (segment granularity bounds how fragment views split), and the
// toolchain version.
type MergeRunMeta struct {
	RunMeta
	WorkerSweep []int `json:"worker_sweep"`
	Window      int   `json:"window"`
	Slide       int   `json:"slide"`
	Slides      int   `json:"slides"`
}

// NewMergeRunMeta captures the current run environment for the given sweep
// geometry.
func NewMergeRunMeta(window, slide, slides int) MergeRunMeta {
	counts := MergeWorkerCounts()
	sort.Ints(counts)
	return MergeRunMeta{
		RunMeta:     NewRunMeta(),
		WorkerSweep: counts,
		Window:      window,
		Slide:       slide,
		Slides:      slides,
	}
}

// WriteMergeJSON writes measured merge points plus run metadata as
// BENCH_merge.json into dir — the machine-readable form CI archives
// alongside the fanout/parallel figures.
func WriteMergeJSON(points []MergePoint, meta MergeRunMeta, dir string) (string, error) {
	blob, err := json.MarshalIndent(struct {
		Bench  string       `json:"bench"`
		Meta   MergeRunMeta `json:"meta"`
		Points []MergePoint `json:"points"`
	}{Bench: "merge", Meta: meta, Points: points}, "", "  ")
	if err != nil {
		return "", err
	}
	path := dir + string(os.PathSeparator) + "BENCH_merge.json"
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
