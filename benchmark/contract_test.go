package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the program
// telling the same story: same workloads in the same order, same metric
// names, units and directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bench.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bench.Workloads), len(ws))
	}
	for i, w := range ws {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, bench.Workloads[i].Name, w.name)
		}
		if n := len(bench.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound missing or outside (0, 0.25]", g.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd, true)
	check("per_layer", bench.PerLayer, perLayer, false)
	if bench.RunSeconds < 1 || bench.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bench.RunSeconds)
	}
	if len(bench.Paths) != 1 || bench.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bench.Paths)
	}
}
