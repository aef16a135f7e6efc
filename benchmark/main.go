// Command benchmark is the repository's one end-to-end benchmark: it builds
// and spawns the real cmd/datacelld as a child process, drives it over the
// wire protocol under open- and closed-loop load, checks every result
// against an oracle, and — in a separate traced run — attributes the time
// to layers with a serial in-process replay. See README.md.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh                                # every workload, untraced then traced
//	bash benchmark/run.sh --workload merge_wide --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh -reps 10 -trace 0 -out /tmp/set1
//	bash benchmark/run.sh -compare /tmp/set1/result.json /tmp/set2/result.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runDeadline bounds one run of one workload, set-up to replay.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	only := flag.String("workload", "", "run only this workload (default: all four, in order)")
	seed := flag.Uint64("seed", 1, "seed of the input generator; repetition r uses seed+r")
	seconds := flag.Int("seconds", 20, "measured seconds per run, split 2:1 between the latency and the capacity phase")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (scrapes, recovery, traced replay); -1: one run of each")
	reps := flag.Int("reps", 1, "repetitions of every run, each with the next seed")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace_<workload>.json")
	cmp := flag.Bool("compare", false, "compare two result.json files (arguments: A B) under BENCHMARK.json's bounds; exit 1 on worse, 2 on unresolved")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		worse, unresolved, err := compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		case worse:
			return 1
		case unresolved:
			return 2
		}
		return 0
	}

	var todo []*workload
	if *only == "" {
		todo = workloads()
	} else if w := workloadByName(*only); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *only)
		return 2
	}
	if *seconds < 1 || *reps < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -reps must be at least 1, -trace one of -1, 0, 1")
		return 2
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	// The generator is one process with two connections; more threads than
	// that would only take CPU from the system under test.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	j := newJanitor(filepath.Join(".bench_build", "tmp"))
	defer j.sweep()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		j.sweep()
		os.Exit(130)
	}()

	buildCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	bin, err := buildServer(buildCtx, filepath.Join(".bench_build", "bin"))
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	ph := phasesFor(*seconds)
	r := &runner{j: j, bin: bin, outDir: *outDir, log: os.Stdout}
	rf := &resultFile{Meta: newRunMeta(*seed, *reps, ph)}
	var last *resultRun
	status := 0
	for _, w := range todo {
		for rep := 0; rep < *reps; rep++ {
			for _, traced := range modes {
				fmt.Printf("== %s seed %d traced %v: %.0f slides/s open loop %.1fs, closed loop %.1fs\n",
					w.name, *seed+uint64(rep), traced, w.rate, ph.latency.Seconds(), ph.capacity.Seconds())
				ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
				out, err := r.run(ctx, w, *seed+uint64(rep), ph, traced)
				cancel()
				if err != nil {
					// No measurement: a hung or crashed child fails the
					// workload without hanging or faking the benchmark.
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v (failed_share = 1)\n", w.name, err)
					status = 1
					last = nil
					continue
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				out.Metrics.fill(defs)
				printOutcome(out, defs)
				rf.Runs = append(rf.Runs, resultRun{Traced: traced, outcome: *out})
				last = &rf.Runs[len(rf.Runs)-1]
			}
		}
	}
	if err := rf.write(*outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if status != 0 || last == nil {
		return 1
	}
	// The last line of standard output is the last run in the driver's
	// shape: only the metrics of the kind that run measures.
	defs := endToEnd
	if last.Traced {
		defs = perLayer
	}
	line, err := contractLine(&last.outcome, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// printOutcome lists a run's metrics by name with unit and sample count.
func printOutcome(out *outcome, defs []metricDef) {
	for _, d := range defs {
		m := out.Metrics[d.name]
		line := fmt.Sprintf("  %-38s %16.4f %-9s n=%d", d.name, m.Value, m.Unit, m.N)
		if q := m.SubQuartiles; len(q) == 3 {
			line += fmt.Sprintf("  sub-interval quartiles %.1f / %.1f / %.1f", q[0], q[1], q[2])
		}
		fmt.Println(line)
	}
	share := 0.0
	if out.Attempted > 0 {
		share = float64(out.Failed) / float64(out.Attempted)
	}
	fmt.Printf("  %-38s %16.6f %-9s n=%d (failed %d, correct %v)\n", "failed_share", share, "ratio", out.Attempted, out.Failed, out.Correct)
}

// contractLine renders one run as the driver's result object.
func contractLine(out *outcome, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m := out.Metrics[d.name]
		metrics[d.name] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics})
	return string(raw), err
}
