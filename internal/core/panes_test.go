package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"datacell/internal/exec"
	"datacell/internal/vector"
)

// q2SQL is the paper's Q2 over the test catalog: max and avg (sum + count)
// of BIGINT columns across the join matrix.
const q2SQL = `SELECT max(s.x1), avg(s2.x1) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`

// TestPaneEligibility pins which scalar aggregates over the join matrix
// fold through panes, the reason the others stay on the instruction path,
// and the Explain line that reports both.
func TestPaneEligibility(t *testing.T) {
	for _, tc := range []struct {
		sql      string
		landmark bool
		baseline bool
		reasons  []string // per ip.Panes entry; "" = paned
		explain  string
	}{
		{sql: q2SQL, reasons: []string{"", "", ""},
			explain: "matrix panes: r9 sum, r10 sum, r8 max (4 panes folded per slide; +new cells, -expired pane)\n"},
		{sql: q2SQL, baseline: true, reasons: []string{"baseline", "baseline", "baseline"},
			explain: "matrix panes: none; instruction path: r9 sum (baseline), r10 sum (baseline), r8 max (baseline)\n"},
		{sql: `SELECT count(*), sum(s.x1 * 0.5) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`,
			reasons: []string{"", "float"},
			explain: "matrix panes: r6 sum (4 panes folded per slide; +new cells, -expired pane); instruction path: r8 sum (float)\n"},
		{sql: `SELECT min(s.x1), max(s2.x1) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`,
			landmark: true, reasons: []string{"landmark", "landmark"}},
		{sql: `SELECT s.x1, count(*) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2 GROUP BY s.x1`,
			explain: "matrix panes: none; instruction path: r8 (grouped), r9 (grouped)\n"},
		{sql: `SELECT s.x1, s2.x1 FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`,
			explain: "matrix panes: none; instruction path: r6 (join rows), r7 (join rows)\n"},
	} {
		n := 4
		if tc.landmark {
			n = 1
		}
		ip, err := Rewrite(compile(t, tc.sql), n, tc.landmark)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(ip.Panes) != len(tc.reasons) {
			t.Fatalf("%s: %d pane specs, want %d", tc.sql, len(ip.Panes), len(tc.reasons))
		}
		opts := Options{Baseline: tc.baseline}
		rt := NewRuntimeOpts(ip, opts)
		for i, want := range tc.reasons {
			paned, why := ip.Pane(i, opts)
			if paned != (want == "") || why != want {
				t.Errorf("%s: pane %d = %v (%q), want %q", tc.sql, i, paned, why, want)
			}
			if got := panedAggs(rt)[i]; got != paned {
				t.Errorf("%s: runtime pane %d = %v, plan says %v", tc.sql, i, got, paned)
			}
		}
		if text := rt.Explain(); tc.explain != "" && !strings.Contains(text, tc.explain) {
			t.Errorf("%s: Explain lacks %q:\n%s", tc.sql, tc.explain, text)
		}
	}
	// A scalar aggregate over one stream's basic windows is no matrix
	// aggregate, and a plan without a join prints no panes line.
	ip, err := Rewrite(compile(t, `SELECT sum(x2) FROM s [RANGE 8 SLIDE 2]`), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ip.Panes) != 0 || strings.Contains(ip.Explain(), "matrix panes") {
		t.Errorf("single-stream plan has panes: %+v\n%s", ip.Panes, ip.Explain())
	}
}

// panedAggs reports, per ip.Panes entry, whether rt currently folds it
// through matrix panes.
func panedAggs(rt *Runtime) []bool {
	out := make([]bool, len(rt.ip.Panes))
	for i, spec := range rt.ip.Panes {
		p := rt.paneCat[spec.Cat]
		out[i] = p != nil && !p.off
	}
	return out
}

// liveCellFold folds aggregate p's partials over every live, assigned
// matrix cell — what the panes must add up to.
func liveCellFold(rt *Runtime, p *paneAgg) paneVal {
	var tot paneVal
	for _, row := range rt.cells {
		for _, cell := range row {
			if cell == nil {
				continue // a failed slide's cell, evaluated again next slide
			}
			for _, x := range cell[p.pos].Vec.Int64s() {
				tot.fold(p.spec.Kind, x)
			}
		}
	}
	return tot
}

// TestPaneFoldMatchesLiveCells: after every slide of a 200-slide run, at
// parallelism 1 and 4, every pane-backed aggregate's panes fold to exactly
// the fold of the live cells, and the window equals the Baseline runtime's
// — including across slides whose cell stage fails (a modulo by zero in
// the joined rows) and the slides that fail after it until the offending
// basic window leaves the window.
func TestPaneFoldMatchesLiveCells(t *testing.T) {
	const sql = `SELECT count(*), sum(s.x1 % s2.x1), min(s.x1), max(s2.x1) FROM s [RANGE 10 SLIDE 2], s2 [RANGE 10 SLIDE 2] WHERE s.x2 = s2.x2`
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ip, err := Rewrite(compile(t, sql), 5, false)
			if err != nil {
				t.Fatal(err)
			}
			rt := NewRuntimeOpts(ip, Options{Parallelism: par})
			base := NewRuntimeOpts(ip, Options{Parallelism: par, Baseline: true})
			if len(rt.panes) != 4 || base.panes != nil {
				t.Fatalf("%d pane aggregates (baseline %d), want 4 (0)", len(rt.panes), len(base.panes))
			}
			rng := rand.New(rand.NewSource(35))
			failed := 0
			for step := 0; step < 200; step++ {
				gen := func(zero bool) []vector.View {
					n := 2 + rng.Intn(3)
					if rng.Intn(6) == 0 {
						n = 0 // an empty basic window: its row/column of cells is empty
					}
					x1, x2 := make([]int64, n), make([]int64, n)
					for i := range x1 {
						x1[i], x2[i] = 1+rng.Int63n(50), rng.Int63n(4)
						if zero {
							x1[i] = 0
						}
					}
					return []vector.View{splitView(x1), splitView(x2)}
				}
				bw := [][]vector.View{gen(false), gen(step == 100)}
				in := make([]exec.Input, 2)
				want, _, werr := base.Step(bw, in)
				got, _, gerr := rt.Step(bw, in)
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("step %d: error %v, baseline %v", step, gerr, werr)
				}
				if gerr != nil {
					failed++
				} else if err := tablesEqual(want, got); err != nil {
					t.Fatalf("step %d: panes diverge from baseline: %v", step, err)
				}
				for _, p := range rt.panes {
					if p.off {
						t.Fatalf("step %d: pane aggregate r%d retired", step, p.spec.Out)
					}
					if got, want := p.total(), liveCellFold(rt, p); got != want {
						t.Fatalf("step %d: r%d %s panes fold to %+v, live cells to %+v", step, p.spec.Out, p.spec.Kind, got, want)
					}
				}
			}
			if failed == 0 {
				t.Fatal("the zero-divisor slide did not fail its cell stage")
			}
		})
	}
}

// TestPaneSumWrapsLikeBaseline: partials near math.MaxInt64 make the
// window sums wrap around; the pane fold wraps exactly as the instruction
// path's sum over the concatenated partials does — both equal the exact
// sum modulo 2^64.
func TestPaneSumWrapsLikeBaseline(t *testing.T) {
	ip, err := Rewrite(compile(t, `SELECT sum(s.x1), count(*), min(s.x1), max(s2.x1) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(ip)
	base := NewRuntimeOpts(ip, Options{Baseline: true})
	var left [][]int64 // every slide's left x1, to sum the window exactly
	wrapped := 0
	for step := 0; step < 40; step++ {
		x1 := []int64{math.MaxInt64 - int64(step), math.MaxInt64 / 3 * 2, math.MinInt64 + int64(step)}
		keys := []int64{1, 1, 1} // every left row joins every right row
		left = append(left, x1)
		want, _ := stepWith(t, base, 2, x1, keys, x1, keys)
		got, _ := stepWith(t, rt, 2, x1, keys, x1, keys)
		if err := tablesEqual(want, got); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got == nil {
			continue
		}
		exact := new(big.Int)
		for _, xs := range left[len(left)-ip.N:] {
			for _, x := range xs {
				exact.Add(exact, big.NewInt(x))
			}
		}
		exact.Mul(exact, big.NewInt(int64(3*ip.N))) // right rows per window
		if !exact.IsInt64() {
			wrapped++
		}
		if sum := got.Cols[0].Get(0).I; uint64(sum) != new(big.Int).And(exact, new(big.Int).SetUint64(math.MaxUint64)).Uint64() {
			t.Fatalf("step %d: sum %d, want %s mod 2^64", step, sum, exact)
		}
	}
	if wrapped == 0 {
		t.Error("no window sum wrapped past the int64 range")
	}
}

// TestPaneMinMaxOverEmptyMatrix: min and max over windows whose cells all
// joined nothing yield no row on the pane path, exactly like the
// instruction path — alone and beside a count, whose one row stays.
func TestPaneMinMaxOverEmptyMatrix(t *testing.T) {
	for _, sql := range []string{
		`SELECT min(s.x1), max(s2.x1) FROM s [RANGE 6 SLIDE 2], s2 [RANGE 6 SLIDE 2] WHERE s.x2 = s2.x2`,
		`SELECT count(*), min(s.x1) FROM s [RANGE 6 SLIDE 2], s2 [RANGE 6 SLIDE 2] WHERE s.x2 = s2.x2`,
	} {
		ip, err := Rewrite(compile(t, sql), 3, false)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(ip)
		base := NewRuntimeOpts(ip, Options{Baseline: true})
		emitted := 0
		for step := 0; step < 12; step++ {
			// Keys match only on the middle slides, so early and late
			// windows are all-empty matrices.
			lk, rk := []int64{1, 2}, []int64{3, 4}
			if step == 5 {
				rk = []int64{2, 9}
			}
			x := []int64{int64(step), int64(-step)}
			want, _ := stepWith(t, base, 2, x, lk, x, rk)
			got, _ := stepWith(t, rt, 2, x, lk, x, rk)
			if err := tablesEqual(want, got); err != nil {
				t.Fatalf("%s step %d: %v (want %v, got %v)", sql, step, err, want, got)
			}
			if got != nil {
				emitted++
			}
		}
		if emitted == 0 || !panedAggs(rt)[len(ip.Panes)-1] {
			t.Fatalf("%s: %d windows, panes %v", sql, emitted, panedAggs(rt))
		}
	}
}

// BenchmarkMatrixMerge runs the paper's Q2 over a join matrix of N×N cells
// at N = 16 and 64 basic windows per window. merge-ns/slide is the slide's
// merge clock (StepStats.MergeNS: pane upkeep plus the merge itself) and
// merge-allocs/slide the allocations of one merge. The matrix panes keep
// the merge O(N) and its allocations independent of N, so the benchmark
// fails if a merge at N = 64 allocates more than one at N = 16 — a count,
// not a timing, so the gate is deterministic.
func BenchmarkMatrixMerge(b *testing.B) {
	allocs := map[int]float64{}
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sql := fmt.Sprintf(`SELECT max(s.x1), avg(s2.x1) FROM s [RANGE %d SLIDE 8], s2 [RANGE %d SLIDE 8] WHERE s.x2 = s2.x2`, 8*n, 8*n)
			ip, err := Rewrite(compile(b, sql), n, false)
			if err != nil {
				b.Fatal(err)
			}
			rt := NewRuntime(ip)
			in := make([]exec.Input, 2)
			slide := func(sl int) StepStats {
				_, st, err := rt.Step([][]vector.View{genBW(sl, 0, 8), genBW(sl, 1, 8)}, in)
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			for sl := 0; sl < n; sl++ {
				slide(sl) // fill the window
			}
			b.ResetTimer()
			var mergeNS int64
			for i := 0; i < b.N; i++ {
				mergeNS += slide(n + i).MergeNS
			}
			b.StopTimer()
			b.ReportMetric(float64(mergeNS)/float64(b.N), "merge-ns/slide")
			allocs[n] = testing.AllocsPerRun(10, func() {
				_, env, _, err := rt.merge(in, nil)
				if err != nil {
					b.Fatal(err)
				}
				clear(env)
			})
			b.ReportMetric(allocs[n], "merge-allocs/slide")
		})
	}
	a16, ran16 := allocs[16]
	a64, ran64 := allocs[64]
	if ran16 && ran64 && a64 > a16 {
		b.Fatalf("a merge allocates %.0f times at N = 64 but %.0f at N = 16: the matrix merge grows with the basic-window count", a64, a16)
	}
}
