package engine

import (
	"fmt"
	"strings"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/vector"

	"math/rand"
)

// joinKeyColumn builds n join-key values of the given type. With onekey
// every row lands on a single key (the all-rows-one-key skew); otherwise
// keys are uniform over the domain.
func joinKeyColumn(rng *rand.Rand, typ vector.Type, n int, onekey bool, domain int64) *vector.Vector {
	draw := func() int64 {
		if onekey {
			return 0
		}
		return rng.Int63n(domain)
	}
	switch typ {
	case vector.Int64:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = draw()
		}
		return vector.FromInt64(vals)
	case vector.Float64:
		// Non-integral floats so the generic (byte-encoded) key path runs.
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(draw()) + 0.5
		}
		return vector.FromFloat64(vals)
	case vector.Str:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("key-%03d", draw())
		}
		return vector.FromStr(vals)
	}
	panic("unhandled join key type")
}

// TestAdaptiveJoinDifferentialEngine drives randomized multi-slide join
// workloads over int64, float, and string keys at three skews (uniform,
// all-rows-one-key, 1000x-selective filter on one side) through four arms —
// the written-order baseline (Options.Baseline) and the greedy adaptive
// planner, each at parallelism 1 and 4 — and requires every emitted window
// to be bit-identical across arms. The adaptive arms must also report
// interned-table reuse; the baseline arms must report none.
func TestAdaptiveJoinDifferentialEngine(t *testing.T) {
	types := []struct {
		name string
		typ  vector.Type
	}{
		{"int64", vector.Int64},
		{"float64", vector.Float64},
		{"string", vector.Str},
	}
	skews := []struct {
		name   string
		onekey bool
		filter string
	}{
		{"uniform", false, ""},
		{"onekey", true, ""},
		{"selective", false, " AND a.v < 2"}, // ~1/500 of a's rows survive
	}
	for _, tc := range types {
		for _, sk := range skews {
			t.Run(tc.name+"/"+sk.name, func(t *testing.T) {
				query := `SELECT a.v, b.v FROM a [RANGE 40 SLIDE 10], b [RANGE 40 SLIDE 10] WHERE a.k = b.k` + sk.filter
				type arm struct {
					name string
					opts Options
				}
				arms := []arm{
					{"baseline-p1", Options{Mode: Incremental, Parallelism: 1, Baseline: true}},
					{"adaptive-p1", Options{Mode: Incremental, Parallelism: 1}},
					{"adaptive-p4", Options{Mode: Incremental, Parallelism: 4}},
					{"baseline-p4", Options{Mode: Incremental, Parallelism: 4, Baseline: true}},
				}
				var results [][]*Result
				for _, a := range arms {
					e := New()
					keyCol := catalog.Column{Name: "k", Type: tc.typ}
					valCol := catalog.Column{Name: "v", Type: vector.Int64}
					for _, s := range []string{"a", "b"} {
						if err := e.RegisterStream(s, catalog.NewSchema(keyCol, valCol)); err != nil {
							t.Fatal(err)
						}
					}
					var c collector
					opts := a.opts
					opts.OnResult = c.add
					q, err := e.Register(query, opts)
					if err != nil {
						t.Fatalf("%s: %v", a.name, err)
					}
					// Identical deterministic feed per arm, pumping between
					// batches so slides complete at staggered offsets.
					rng := rand.New(rand.NewSource(71))
					const total, batch = 480, 16
					for off := 0; off < total; off += batch {
						for _, s := range []string{"a", "b"} {
							k := joinKeyColumn(rng, tc.typ, batch, sk.onekey, 12)
							v := make([]int64, batch)
							for i := range v {
								v[i] = rng.Int63n(1000)
							}
							if err := e.Append(s, []*vector.Vector{k, vector.FromInt64(v)}, nil); err != nil {
								t.Fatal(err)
							}
						}
						if _, err := e.Pump(); err != nil {
							t.Fatalf("%s pump: %v", a.name, err)
						}
					}
					if len(c.results) == 0 {
						t.Fatalf("%s: no windows", a.name)
					}
					st := q.Stats()
					if a.opts.Baseline {
						if st.BuildsReused != 0 {
							t.Fatalf("%s: baseline reports %d reused builds", a.name, st.BuildsReused)
						}
						if !strings.Contains(q.Explain(), "written-order baseline") {
							t.Fatalf("%s: Explain does not mention the baseline:\n%s", a.name, q.Explain())
						}
					} else {
						// The selective skew leaves most cells empty, so reuse
						// is not guaranteed there.
						if sk.filter == "" && st.BuildsReused == 0 {
							t.Fatalf("%s: adaptive arm reused no builds", a.name)
						}
						if !strings.Contains(q.Explain(), "greedy") {
							t.Fatalf("%s: Explain does not describe the greedy planner:\n%s", a.name, q.Explain())
						}
					}
					results = append(results, c.results)
				}
				for ai := 1; ai < len(arms); ai++ {
					if len(results[ai]) != len(results[0]) {
						t.Fatalf("%s emitted %d windows, %s emitted %d",
							arms[0].name, len(results[0]), arms[ai].name, len(results[ai]))
					}
					for i := range results[0] {
						ref := tableKey(results[0][i].Table, false)
						got := tableKey(results[ai][i].Table, false)
						if got != ref {
							t.Fatalf("window %d differs (%s vs %s):\n%s\nvs\n%s",
								i+1, arms[0].name, arms[ai].name, ref, got)
						}
					}
				}
			})
		}
	}
}
