package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"datacell/internal/engine"
	"datacell/internal/vector"
	"datacell/internal/workload"
)

// This file measures the greedy statistics-free join planner (not a paper
// figure): one two-stream windowed equi-join drains a buffered backlog with
// the join-matrix cells planned per slide — exact post-filter cardinalities
// pick the build side per cell and the per-basic-window hash tables are
// interned and reused across cells and slides — against the written-order
// baseline (Options.Baseline) that rebuilds the right side's table
// in every probing cell. The sweep crosses filter skews: skew 1 keeps both
// sides full (the planner's win is table reuse alone), skew 1000 filters
// one side down to ~0.1% (the seed's written order then pays a full build
// to probe a handful of rows — the shape the greedy choice flips). Both
// arms are checksum-verified identical. cmd/dcbench renders the table
// (-fig joins) and can emit the machine-readable BENCH_joins.json CI gates
// on.

// joinsQuery is the paper's Q2 shape with a selectivity knob on one input:
// the s1.x1 < T filter runs before the join, so T sets the post-filter
// cardinality asymmetry the planner sees. Its float sum keeps the join off
// the window-level join index (core.IncPlan.JoinIndex), so both arms
// evaluate matrix cells and the sweep times the greedy planner.
const joinsQuery = `SELECT count(*), sum(s1.x1 * 0.5) FROM s1 [RANGE %d SLIDE %d], s2 [RANGE %d SLIDE %d] WHERE s1.x2 = s2.x2 AND s1.x1 < %d`

// joinsX1Domain is the value domain of the filtered column; the skew-S
// threshold joinsX1Domain/S keeps roughly 1/S of s1's rows.
const joinsX1Domain = 1000

// joinsKeyDomain is the join-key domain (x2), sized so every basic-window
// pair produces matches without any single key dominating.
const joinsKeyDomain = 1024

// JoinsPoint is one measured (filter skew, plan) cell. Baseline marks the
// written-order run (Options.Baseline) that anchors the speedup columns of
// its skew.
type JoinsPoint struct {
	Skew         int     `json:"filter_skew"`
	Baseline     bool    `json:"written_order_baseline,omitempty"`
	Workers      int     `json:"workers"`
	Windows      int     `json:"windows"`
	Tuples       int     `json:"tuples_per_stream"`
	WallMS       float64 `json:"wall_ms"`
	JoinMS       float64 `json:"join_ms"`
	BuildsReused int64   `json:"builds_reused"`
	JoinSpeedup  float64 `json:"join_speedup_vs_baseline"`
	Speedup      float64 `json:"speedup_vs_baseline"`
	ResultSum    int64   `json:"result_checksum"`
	AllocPerStep float64 `json:"allocs_per_step"`
}

// MeasureJoins registers the Q2-shaped join with the given filter skew and
// plan arm, buffers the whole backlog, and measures the single Pump that
// drains it. JoinMS is the join-matrix cell-update stage (the JoinNS clock);
// BuildsReused counts probing cells served by an interned table instead of
// a fresh build.
func MeasureJoins(skew, workers, window, slide, slides int, baseline bool) (JoinsPoint, error) {
	p := JoinsPoint{Skew: skew, Workers: workers, Baseline: baseline}
	if prev := runtime.GOMAXPROCS(0); workers > prev {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
	}
	e := engine.New()
	for _, s := range []string{"s1", "s2"} {
		if err := e.RegisterStream(s, intSchema()); err != nil {
			return p, err
		}
	}
	threshold := joinsX1Domain / skew
	if threshold < 1 {
		threshold = 1
	}
	var windows int
	var checksum int64
	opts := engine.Options{
		Mode:        engine.Incremental,
		Parallelism: workers,
		Baseline:    baseline,
		OnResult: func(r *engine.Result) {
			windows++
			for _, col := range r.Table.Cols {
				switch col.Type() {
				case vector.Int64, vector.Timestamp:
					for _, v := range col.Int64s() {
						checksum = checksum*31 + v
					}
				case vector.Float64:
					for _, v := range col.Float64s() {
						checksum = checksum*31 + int64(math.Float64bits(v))
					}
				default:
					for i := 0; i < col.Len(); i++ {
						checksum = checksum*31 + col.Get(i).I
					}
				}
			}
		},
	}
	q, err := e.Register(fmt.Sprintf(joinsQuery, window, slide, window, slide, threshold), opts)
	if err != nil {
		return p, err
	}
	total := slide * slides
	streams := []string{"s1", "s2"}
	gens := []*workload.Gen{
		workload.NewGen(4242, joinsX1Domain, joinsKeyDomain),
		workload.NewGen(2424, joinsX1Domain, joinsKeyDomain),
	}
	for off := 0; off < total; off += slide {
		for i, s := range streams {
			if err := e.AppendColumns(s, gens[i].Next(slide), nil); err != nil {
				return p, err
			}
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
	p.JoinMS = float64(st.JoinNS) / 1e6
	p.BuildsReused = st.BuildsReused
	p.ResultSum = checksum
	p.AllocPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(steps)
	return p, nil
}

// JoinsSkews returns the swept filter skews: 1 (no asymmetry — the win is
// interned-table reuse alone) and 1000 (one side ~0.1% post-filter — the
// written order's build side is 1000x the probe side).
func JoinsSkews() []int { return []int{1, 1000} }

// MeasureJoinsSweep measures, per filter skew, the written-order baseline
// plus the adaptive planner at the same worker count, verifies result
// checksums match, and anchors the speedup columns on the baseline's
// join-stage and wall times.
func MeasureJoinsSweep(workers, window, slide, slides int) ([]JoinsPoint, error) {
	var points []JoinsPoint
	for _, skew := range JoinsSkews() {
		base, err := MeasureJoins(skew, workers, window, slide, slides, true)
		if err != nil {
			return nil, err
		}
		base.Speedup = 1
		base.JoinSpeedup = 1
		points = append(points, base)
		pt, err := MeasureJoins(skew, workers, window, slide, slides, false)
		if err != nil {
			return nil, err
		}
		if pt.ResultSum != base.ResultSum {
			return nil, fmt.Errorf("bench: skew=%d checksum %d differs from written-order baseline %d",
				skew, pt.ResultSum, base.ResultSum)
		}
		if pt.JoinMS > 0 {
			pt.JoinSpeedup = base.JoinMS / pt.JoinMS
		}
		if pt.WallMS > 0 {
			pt.Speedup = base.WallMS / pt.WallMS
		}
		points = append(points, pt)
	}
	return points, nil
}

// JoinsParams derives the sweep size from the config using the gentler Q2
// scaling: at Scale 1 the window holds the paper's 102,400 tuples across 8
// basic windows (64 join-matrix cells) with a 24-slide backlog.
func JoinsParams(cfg Config) (window, slide, slides int) {
	window, slide = cfg.joinCfg().sized(102_400, 8)
	return window, slide, 24
}

// RunJoins regenerates the adaptive-join-planning table.
func RunJoins(cfg Config) (*Table, error) {
	window, slide, slides := JoinsParams(cfg)
	points, err := MeasureJoinsSweep(4, window, slide, slides)
	if err != nil {
		return nil, err
	}
	return JoinsTable(points, window, slide, slides), nil
}

// JoinsTable renders measured join points as a dcbench table.
func JoinsTable(points []JoinsPoint, window, slide, slides int) *Table {
	t := &Table{
		Figure: "Joins",
		Title: fmt.Sprintf("greedy join planning: |W|=%d, |w|=%d, %d-slide backlog, filter skews x plan",
			window, slide, slides),
		Header: []string{"skew", "plan", "wall_ms", "join_ms", "builds_reused", "join_speedup", "speedup", "allocs_per_step"},
		Notes:  "(written = seed-style written-order plan, right side built per cell, the speedup anchor; greedy picks the build side per cell from exact post-filter cardinalities and reuses interned per-basic-window tables; checksums verified identical per skew)",
	}
	for _, p := range points {
		plan := "greedy"
		if p.Baseline {
			plan = "written"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Skew),
			plan,
			fmt.Sprintf("%.1f", p.WallMS),
			fmt.Sprintf("%.1f", p.JoinMS),
			fmt.Sprint(p.BuildsReused),
			fmt.Sprintf("%.2f", p.JoinSpeedup),
			fmt.Sprintf("%.2f", p.Speedup),
			fmt.Sprintf("%.1f", p.AllocPerStep),
		})
	}
	return t
}

// JoinsRunMeta records the run environment alongside the measured points,
// so a BENCH_joins.json is interpretable without the machine that made it.
type JoinsRunMeta struct {
	RunMeta
	Workers int `json:"workers"`
	Window  int `json:"window"`
	Slide   int `json:"slide"`
	Slides  int `json:"slides"`
}

// NewJoinsRunMeta captures the current run environment for the given sweep
// geometry.
func NewJoinsRunMeta(workers, window, slide, slides int) JoinsRunMeta {
	return JoinsRunMeta{
		RunMeta: NewRunMeta(),
		Workers: workers,
		Window:  window,
		Slide:   slide,
		Slides:  slides,
	}
}

// WriteJoinsJSON writes measured join points plus run metadata as
// BENCH_joins.json into dir — the machine-readable form CI archives and
// gates on (the skew-1000 join_speedup_vs_baseline must clear 2x and the
// greedy arms must report interned-table reuse).
func WriteJoinsJSON(points []JoinsPoint, meta JoinsRunMeta, dir string) (string, error) {
	blob, err := json.MarshalIndent(struct {
		Bench  string       `json:"bench"`
		Meta   JoinsRunMeta `json:"meta"`
		Points []JoinsPoint `json:"points"`
	}{Bench: "joins", Meta: meta, Points: points}, "", "  ")
	if err != nil {
		return "", err
	}
	path := dir + string(os.PathSeparator) + "BENCH_joins.json"
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
