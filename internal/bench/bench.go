// Package bench regenerates every table and figure of the paper's
// evaluation section (Figs 4-9). Each RunFigXX function builds the
// workload, drives the engines, and returns a Table with the same series
// the paper plots; cmd/dcbench prints them, bench_test.go wraps them in
// testing.B benchmarks, and benchmark/README.md documents the repository's
// end-to-end benchmark and its measured numbers.
//
// Absolute sizes default to 1/Scale of the paper's parameters (the paper
// ran 10M-tuple windows on a 2008 Core2 Quad for minutes per figure);
// shapes — who wins, by what factor, where the crossover sits — are
// preserved at any scale.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"

	"datacell/internal/basket"
	"datacell/internal/catalog"
	"datacell/internal/engine"
	"datacell/internal/vector"
	"datacell/internal/workload"
)

// RunMeta records the run environment every BENCH_*.json carries, so a
// result file is interpretable without the machine that made it: the
// toolchain version, the host's CPU budget, and the ingest seal threshold
// (segment granularity bounds how fragment views split).
type RunMeta struct {
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	SealThreshold int    `json:"seal_threshold_rows"`
}

// NewRunMeta captures the current run environment.
func NewRunMeta() RunMeta {
	return RunMeta{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		SealThreshold: basket.DefaultSealRows,
	}
}

// Config controls experiment scaling.
type Config struct {
	// Scale divides the paper's window/step sizes. 1 reproduces the exact
	// paper parameters.
	Scale int
	// Windows overrides the number of measured windows (0 = per-figure
	// paper default).
	Windows int
	// Quiet suppresses progress output.
	Quiet bool
}

// DefaultConfig returns the default scaled-down configuration.
func DefaultConfig() Config { return Config{Scale: 64} }

func (c Config) scale(n int) int {
	s := c.Scale
	if s < 1 {
		s = 1
	}
	out := n / s
	if out < 1 {
		out = 1
	}
	return out
}

// sized computes a window/step pair with exact divisibility: the step is
// the scaled paper step and the window is nbw steps.
func (c Config) sized(paperW, nbw int) (W, w int) {
	w = c.scale(paperW) / nbw
	if w < 1 {
		w = 1
	}
	return w * nbw, w
}

// joinCfg returns a gentler scaling for the Q2-based figures: the paper's
// join windows (|W| = 1.024e5) are already laptop-sized, and scaling them
// down as aggressively as the 10M-tuple Q1 windows would leave per-cell
// bookkeeping overhead dominating the measurement.
func (c Config) joinCfg() Config {
	s := c.Scale / 16
	if s < 1 {
		s = 1
	}
	return Config{Scale: s, Windows: c.Windows, Quiet: c.Quiet}
}

func (c Config) windows(def int) int {
	if c.Windows > 0 {
		return c.Windows
	}
	return def
}

// Table is one regenerated figure: a header plus rows of formatted cells.
type Table struct {
	Figure string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Figure, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintln(w, t.Notes)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

func intSchema() catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "x1", Type: vector.Int64},
		catalog.Column{Name: "x2", Type: vector.Int64},
	)
}

// windowTimer attributes all step work between consecutive emissions to
// the emitted window, matching the paper's response-time metric (the
// preface of the first window is charged to window 1).
type windowTimer struct {
	q        *engine.ContinuousQuery
	lastTot  int64
	lastMain int64
	lastMrg  int64
	// ResponseNS[i] is the time charged to window i+1.
	ResponseNS []int64
	MainNS     []int64
	MergeNS    []int64
	Results    []*engine.Result
}

func (wt *windowTimer) onResult(r *engine.Result) {
	st := wt.q.Stats()
	// The paper's two-stage form: fragment and merge.
	main, merge, tot := st.MainNS, st.MergeNS, st.TotalNS
	wt.ResponseNS = append(wt.ResponseNS, tot-wt.lastTot)
	wt.MainNS = append(wt.MainNS, main-wt.lastMain)
	wt.MergeNS = append(wt.MergeNS, merge-wt.lastMrg)
	wt.lastTot, wt.lastMain, wt.lastMrg = tot, main, merge
	wt.Results = append(wt.Results, r)
}

// register wires a query + timer into an engine.
func register(e *engine.Engine, query string, mode engine.Mode, opts engine.Options) (*windowTimer, error) {
	wt := &windowTimer{}
	opts.Mode = mode
	opts.OnResult = wt.onResult
	q, err := e.Register(query, opts)
	if err != nil {
		return nil, err
	}
	wt.q = q
	return wt, nil
}

// feedAndPump appends batches of step tuples and pumps after each batch.
func feedAndPump(e *engine.Engine, streams []string, gens []*workload.Gen, total, batch int) error {
	for off := 0; off < total; off += batch {
		n := batch
		if off+n > total {
			n = total - off
		}
		for i, s := range streams {
			if err := e.AppendColumns(s, gens[i].Next(n), nil); err != nil {
				return err
			}
		}
		if _, err := e.Pump(); err != nil {
			return err
		}
	}
	return nil
}

func avg(ns []int64) int64 {
	if len(ns) == 0 {
		return 0
	}
	var s int64
	for _, x := range ns {
		s += x
	}
	return s / int64(len(ns))
}

// steadyMedian is the median of all but the first window (the
// preface-heavy one); one scheduler stall in a few windows moves a mean,
// not the median. An even count averages the middle two.
func steadyMedian(ns []int64) int64 {
	if len(ns) <= 1 {
		return avg(ns)
	}
	s := slices.Clone(ns[1:])
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}
