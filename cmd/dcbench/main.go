// Command dcbench regenerates the paper's evaluation figures (Figs 4-9)
// plus the engine's own scaling tables.
//
// Usage:
//
//	dcbench [-fig 4a|4b|5a|5b|6a|6b|7a|7b|8|9|9inset|scaling|fanout|parallel|merge|joins|serve|all]
//	        [-scale N] [-windows N] [-json DIR]
//
// -scale divides the paper's window sizes (default 64; -scale 1 runs the
// exact paper parameters — expect long runtimes and several GB of RAM for
// the 100M-tuple point of Fig 6a).
//
// -json DIR additionally writes machine-readable results for the figures
// that support it (fanout → DIR/BENCH_fanout.json with ns/op and allocs/op
// per query count, parallel → DIR/BENCH_parallel.json with wall time and
// speedup per worker count, merge → DIR/BENCH_merge.json with per-stage
// times, merge kernel and merge speedup per query shape x key domain x
// worker count, joins → DIR/BENCH_joins.json with join-stage time, interned-table reuse, and
// speedup per filter skew x plan arm, serve → DIR/BENCH_serve.json with
// end-to-end p50/p99 latency per client count), so CI can track the perf
// trajectory across commits.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"datacell/internal/bench"
)

var figures = []struct {
	name string
	run  func(bench.Config) (*bench.Table, error)
}{
	{"4a", bench.RunFig4a},
	{"4b", bench.RunFig4b},
	{"5a", bench.RunFig5a},
	{"5b", bench.RunFig5b},
	{"6a", bench.RunFig6a},
	{"6b", bench.RunFig6b},
	{"7a", bench.RunFig7a},
	{"7b", bench.RunFig7b},
	{"8", bench.RunFig8},
	{"9", bench.RunFig9},
	{"9inset", bench.RunFig9Inset},
	{"scaling", bench.RunScaling},
	{"fanout", nil},   // special-cased: one sweep feeds both table and JSON
	{"parallel", nil}, // special-cased likewise
	{"merge", nil},    // special-cased likewise
	{"joins", nil},    // special-cased likewise
	{"serve", nil},    // special-cased likewise
	{"storage", nil},  // special-cased likewise
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (4a..9inset, 'scaling', 'fanout', 'parallel', 'merge', 'joins', 'serve', 'storage', or 'all')")
	scale := flag.Int("scale", 64, "divide the paper's window sizes by this factor")
	windows := flag.Int("windows", 0, "override the number of measured windows (0 = paper default)")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_*.json results into (empty = off)")
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Windows: *windows}
	ran := 0
	for _, f := range figures {
		if *fig != "all" && !strings.EqualFold(*fig, f.name) {
			continue
		}
		t0 := time.Now()
		var tbl *bench.Table
		var err error
		switch f.name {
		case "fanout":
			tbl, err = runFanout(cfg, *jsonDir)
		case "parallel":
			tbl, err = runParallel(cfg, *jsonDir)
		case "merge":
			tbl, err = runMerge(cfg, *jsonDir)
		case "joins":
			tbl, err = runJoins(cfg, *jsonDir)
		case "serve":
			tbl, err = runServe(cfg, *jsonDir)
		case "storage":
			tbl, err = runStorage(cfg, *jsonDir)
		default:
			tbl, err = f.run(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcbench: fig %s: %v\n", f.name, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(fig %s took %s)\n\n", f.name, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dcbench: unknown figure %q\n", *fig)
		os.Exit(1)
	}
}

// runFanout measures the ingest-fanout sweep plus the shared-plan
// per-slide sweep once, prints the ingest table inline, and feeds both
// measurements to the returned slide table and (when -json is set) the
// machine-readable BENCH_fanout.json.
func runFanout(cfg bench.Config, jsonDir string) (*bench.Table, error) {
	rows, batches := bench.FanoutParams(cfg)
	points, err := bench.MeasureFanoutSweep(rows, batches)
	if err != nil {
		return nil, err
	}
	window, slide, slides := bench.FanoutSlideParams(cfg)
	slidePoints, err := bench.MeasureFanoutSlideSweep(window, slide, slides)
	if err != nil {
		return nil, err
	}
	if jsonDir != "" {
		path, err := bench.WriteFanoutJSON(points, slidePoints, jsonDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", path)
	}
	bench.FanoutTable(points, rows*batches).Fprint(os.Stdout)
	return bench.FanoutSlideTable(slidePoints, window, slide), nil
}

// runMerge measures the grouped-merge sweep (query shapes x key domains x
// worker counts) once and feeds the single measurement to both the printed
// table and (when -json is set) the machine-readable BENCH_merge.json.
func runMerge(cfg bench.Config, jsonDir string) (*bench.Table, error) {
	window, slide, slides := bench.MergeParams(cfg)
	points, err := bench.MeasureMergeSweep(window, slide, slides)
	if err != nil {
		return nil, err
	}
	if jsonDir != "" {
		path, err := bench.WriteMergeJSON(points, bench.NewMergeRunMeta(window, slide, slides), jsonDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return bench.MergeTable(points, window, slide, slides), nil
}

// runJoins measures the adaptive-join-planning sweep (filter skews x plan
// arm) once and feeds the single measurement to both the printed table and
// (when -json is set) the machine-readable BENCH_joins.json.
func runJoins(cfg bench.Config, jsonDir string) (*bench.Table, error) {
	window, slide, slides := bench.JoinsParams(cfg)
	const workers = 4
	points, err := bench.MeasureJoinsSweep(workers, window, slide, slides)
	if err != nil {
		return nil, err
	}
	if jsonDir != "" {
		path, err := bench.WriteJoinsJSON(points, bench.NewJoinsRunMeta(workers, window, slide, slides), jsonDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return bench.JoinsTable(points, window, slide, slides), nil
}

// runServe measures the serving-tier latency sweep (N TCP clients over M
// shared statements) once and feeds the single measurement to both the
// printed table and (when -json is set) the machine-readable
// BENCH_serve.json.
func runServe(cfg bench.Config, jsonDir string) (*bench.Table, error) {
	slide, windows := bench.ServeParams(cfg)
	points, err := bench.MeasureServeSweep(slide, windows)
	if err != nil {
		return nil, err
	}
	if jsonDir != "" {
		path, err := bench.WriteServeJSON(points, jsonDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return bench.ServeTable(points, slide, windows), nil
}

// runStorage measures the durable-segment-log sweep (ingest per backend
// plus recovery replay) once and feeds the single measurement to both the
// printed table and (when -json is set) the machine-readable
// BENCH_storage.json.
func runStorage(cfg bench.Config, jsonDir string) (*bench.Table, error) {
	points, replay, err := bench.MeasureStorage(cfg)
	if err != nil {
		return nil, err
	}
	if jsonDir != "" {
		path, err := bench.WriteStorageJSON(points, replay, jsonDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return bench.StorageTable(points, replay), nil
}

// runParallel measures the intra-query parallelism sweep once and feeds
// the single measurement to both the printed table and (when -json is
// set) the machine-readable BENCH_parallel.json.
func runParallel(cfg bench.Config, jsonDir string) (*bench.Table, error) {
	window, slide, slides := bench.ParallelParams(cfg)
	points, err := bench.MeasureParallelSweep(window, slide, slides)
	if err != nil {
		return nil, err
	}
	if jsonDir != "" {
		path, err := bench.WriteParallelJSON(points, jsonDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return bench.ParallelTable(points, window, slide, slides), nil
}
