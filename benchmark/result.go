package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultFile is the one schema every run writes (result.json) and the
// compare mode reads.
type resultFile struct {
	Meta runMeta     `json:"meta"`
	Runs []resultRun `json:"runs"`
}

// runMeta says what was run, on what.
type runMeta struct {
	Commit          string             `json:"commit"`
	GoVersion       string             `json:"go_version"`
	NProc           int                `json:"nproc"`
	GOMAXPROCS      int                `json:"gomaxprocs_generator"`
	ChildGOMAXPROCS string             `json:"gomaxprocs_child"`
	Started         string             `json:"started"`
	Seed            uint64             `json:"seed"`
	Repetitions     int                `json:"repetitions"`
	WarmS           float64            `json:"warm_s"`
	LatencyS        float64            `json:"latency_s"`
	CapacityS       float64            `json:"capacity_s"`
	LatencyLimitMS  int                `json:"latency_limit_ms"`
	RatesSlidesS    map[string]float64 `json:"rates_slides_s"`
}

// resultRun is one run of one workload.
type resultRun struct {
	Traced bool `json:"traced"`
	outcome
}

func newRunMeta(seed uint64, reps int, ph phases) runMeta {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	// The child is started with the environment unchanged, so its
	// GOMAXPROCS is the runtime's default unless the variable is set.
	childProcs := os.Getenv("GOMAXPROCS")
	if childProcs == "" {
		childProcs = fmt.Sprintf("default (%d)", runtime.NumCPU())
	}
	rates := map[string]float64{}
	for _, w := range workloads() {
		rates[w.name] = w.rate
	}
	return runMeta{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), ChildGOMAXPROCS: childProcs,
		Started: time.Now().UTC().Format(time.RFC3339), Seed: seed, Repetitions: reps,
		WarmS: ph.warm.Seconds(), LatencyS: ph.latency.Seconds(), CapacityS: ph.capacity.Seconds(),
		LatencyLimitMS: latencyLimitMS, RatesSlidesS: rates,
	}
}

func (rf *resultFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values collects one metric of one workload over a file's runs of the
// matching kind (end-to-end metrics come from untraced runs).
func (rf *resultFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, run := range rf.Runs {
		if run.Workload != workload || run.Traced != traced {
			continue
		}
		if m, ok := run.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// benchmarkJSON is the part of BENCHMARK.json the compare mode needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare applies BENCHMARK.json's bounds to two result files: one row per
// (workload, end-to-end metric), the second file judged against the first.
// It reports whether any row is worse, and whether any is unresolved.
func compare(out io.Writer, benchPath, pathA, pathB string) (worse, unresolved bool, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, false, err
	}
	var bench benchmarkJSON
	if err := json.Unmarshal(raw, &bench); err != nil {
		return false, false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, false, err
	}
	fmt.Fprintf(out, "%-16s %-18s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound", "verdict")
	for _, w := range workloads() {
		for _, m := range bench.EndToEnd {
			va, vb := a.values(w.name, m.Name, false), b.values(w.name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-16s %-18s missing from a file\n", w.name, m.Name)
				unresolved = true
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means B is worse than A by that share of A.
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "same"
			switch {
			case (sa > m.Bound || sb > m.Bound) && m.Name != "setup_s":
				// The runs of one commit differ among themselves by more than
				// the bound, so a difference within it cannot be told apart.
				// setup_s is judged by its medians alone, as the driver that
				// accepts the benchmark does: a set-up is tens of
				// milliseconds of process spawning, the noisiest thing here.
				verdict, unresolved = "unresolved", true
			case change > m.Bound:
				verdict, worse = "worse", true
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(out, "%-16s %-18s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.name, m.Name, ma, mb, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		fa, ta := a.failures(w.name)
		fb, tb := b.failures(w.name)
		verdict := "same"
		if float64(fb)*float64(ta) > float64(fa)*float64(tb) { // any increase of failed/attempted
			verdict, worse = "worse", true
		}
		fmt.Fprintf(out, "%-16s %-18s %14s %14s %45s\n", w.name, "failed_share",
			fmt.Sprintf("%d/%d", fa, ta), fmt.Sprintf("%d/%d", fb, tb), verdict)
	}
	return worse, unresolved, nil
}

// failures totals failed and attempted operations of a workload's runs.
func (rf *resultFile) failures(workload string) (failed, attempted int) {
	for _, run := range rf.Runs {
		if run.Workload == workload {
			failed += run.Failed
			attempted += run.Attempted
		}
	}
	return failed, attempted
}
