package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"datacell/internal/algebra"
	"datacell/internal/exec"
	"datacell/internal/vector"
)

// TestPaneIndexEligibility pins which join plans run through the join
// index, the reason the others stay on the cell path, and the Explain
// line that reports it.
func TestPaneIndexEligibility(t *testing.T) {
	const from = ` FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`
	const cells = "join planning: greedy per-cell build side from exact post-filter cardinalities (r%d vs r%d), interned per-bw build tables, empty sides zero their cells (no join index: %s)\n"
	for _, tc := range []struct {
		sql      string
		landmark bool
		baseline bool
		reason   string // "" = indexed
	}{
		{sql: `SELECT count(*), sum(s.x1)` + from + ` AND s.x1 < 250`},
		{sql: `SELECT max(s.x1), avg(s2.x1), min(s2.x1)` + from},
		{sql: `SELECT count(*)` + from},
		{sql: `SELECT count(*), sum(s.x1)` + from, baseline: true, reason: "baseline"},
		{sql: `SELECT min(s.x1), max(s2.x1)` + from, landmark: true, reason: "landmark"},
		{sql: `SELECT count(*), sum(s.x1 * 0.5)` + from, reason: "map after the join"},
		{sql: `SELECT count(*), sum(s.x1 % s2.x1)` + from, reason: "map after the join"},
		{sql: `SELECT count(*)` + from + ` AND s.x1 < s2.x1`, reason: "map after the join"},
		{sql: `SELECT s.x1, count(*)` + from + ` GROUP BY s.x1`, reason: "group after the join"},
		{sql: `SELECT s.x1, s2.x1` + from, reason: "join rows r6"},
	} {
		n := 4
		if tc.landmark {
			n = 1
		}
		ip, err := Rewrite(compile(t, tc.sql), n, tc.landmark)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		opts := Options{Baseline: tc.baseline}
		ok, why := ip.JoinIndex(opts)
		if ok != (tc.reason == "") || why != tc.reason {
			t.Errorf("%s: JoinIndex = %v (%q), want %q", tc.sql, ok, why, tc.reason)
		}
		rt := NewRuntimeOpts(ip, opts)
		if rt.JoinIndexed() != ok || (ok && rt.AdaptiveJoin()) {
			t.Errorf("%s: runtime indexed %v, adaptive %v; plan says indexed %v", tc.sql, rt.JoinIndexed(), rt.AdaptiveJoin(), ok)
		}
		want := "join index: one probe per new row, hits fold into pane min(i,j)\n"
		if !ok {
			want = fmt.Sprintf(cells, ip.Join.LeftIn, ip.Join.RightIn, tc.reason)
		}
		if text := rt.Explain(); !strings.Contains(text, want) {
			t.Errorf("%s: Explain lacks %q:\n%s", tc.sql, want, text)
		}
	}
	// Non-integer keys (the test catalog has only integer columns) and cell
	// work before the join have no SQL here that reaches them; pin them on
	// hand-edited plans.
	ip, err := Rewrite(compile(t, `SELECT count(*)`+from), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []struct {
		js   JoinSpec
		want string
	}{
		{JoinSpec{IntKeys: false, At: 0}, "non-integer join key"},
		{JoinSpec{IntKeys: true, At: 1}, "cell work before the join"},
	} {
		edited := *ip
		js := *ip.Join
		js.IntKeys, js.At = edit.js.IntKeys, edit.js.At
		edited.Join = &js
		if _, why := edited.JoinIndex(Options{}); why != edit.want {
			t.Errorf("edited join %+v: %q, want %q", js, why, edit.want)
		}
	}
	// A float column summed across the join (the test catalog has none)
	// leaves its pane, and the plan the index.
	edited := *ip
	edited.Panes = slices.Clone(ip.Panes)
	edited.Panes[0].Typ = vector.Float64
	if _, why := edited.JoinIndex(Options{}); why != fmt.Sprintf("r%d sum not paned (float)", ip.Panes[0].Out) {
		t.Errorf("float pane: %q", why)
	}
	ip, err = Rewrite(compile(t, `SELECT sum(x2) FROM s [RANGE 8 SLIDE 2]`), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, why := ip.JoinIndex(Options{}); why != "no stream-stream join" || strings.Contains(ip.Explain(), "join index") {
		t.Errorf("single-stream plan: %q\n%s", why, ip.Explain())
	}
}

// indexBW is one basic window of one join side as the tests generate it.
type indexBW struct{ x1, x2 []int64 }

// keeps reports whether the left filter s.x1 < bound keeps x;
// math.MaxInt64 stands for no filter.
func keeps(x, bound int64) bool { return bound == math.MaxInt64 || x < bound }

// nestedLoopFold folds count, sum(s.x1), min(s.x1) and max(s2.x1) over
// every joining pair of the given basic windows whose left row the filter
// keeps — the naive nested-loop join the index must add up to. wrapped
// reports that the exact sum lies outside the int64 range.
func nestedLoopFold(left, right []indexBW, bound int64) (count, sum int64, lo, hi paneVal, wrapped bool) {
	var exactHi, exactLo uint64 // the exact sum in 128-bit two's complement
	for _, l := range left {
		for a, ka := range l.x2 {
			if !keeps(l.x1[a], bound) {
				continue
			}
			for _, r := range right {
				for b, kb := range r.x2 {
					if ka != kb {
						continue
					}
					count++
					sum += l.x1[a]
					var carry uint64
					exactLo, carry = bits.Add64(exactLo, uint64(l.x1[a]), 0)
					exactHi += carry + uint64(l.x1[a]>>63) // sign-extend
					lo.fold(algebra.AggMin, l.x1[a])
					hi.fold(algebra.AggMax, r.x1[b])
				}
			}
		}
	}
	return count, sum, lo, hi, exactHi != uint64(int64(exactLo)>>63)
}

// TestPaneIndexMatchesBaseline: over 500 random slides per basic-window
// count (N = 1, 2, 5) and parallelism (1, 4), the join index yields every
// window bit-identical to the Baseline runtime and equal to the fold of a
// naive nested-loop join, for count/sum behind a filter and for
// count/sum/min/max/avg. The slides cover empty basic windows, a one-key
// domain where every pair joins, values near math.MaxInt64 and
// math.MinInt64 whose sums wrap, stretches of disjoint keys long enough to
// empty whole windows (min and max then yield no row), bursts of rows
// whose buckets shrink again once they expire and, at every N, many index
// compactions. After every slide each side's index holds exactly one
// record per key of each live basic window's post-filter rows, and the
// slide probed once per new post-filter row.
func TestPaneIndexMatchesBaseline(t *testing.T) {
	queries := []struct {
		sel   string
		bound int64 // left filter s.x1 < bound, MaxInt64 = none
	}{
		{sel: `count(*), sum(s.x1)`, bound: 40},
		{sel: `count(*), sum(s.x1), min(s.x1), max(s2.x1), avg(s2.x1)`, bound: math.MaxInt64},
	}
	for _, n := range []int{1, 2, 5} {
		for _, par := range []int{1, 4} {
			for qi, q := range queries {
				t.Run(fmt.Sprintf("N=%d/par=%d/q%d", n, par, qi), func(t *testing.T) {
					sql := fmt.Sprintf(`SELECT %s FROM s [RANGE %d SLIDE 2], s2 [RANGE %d SLIDE 2] WHERE s.x2 = s2.x2`, q.sel, 2*n, 2*n)
					if q.bound != math.MaxInt64 {
						sql += fmt.Sprintf(` AND s.x1 < %d`, q.bound)
					}
					ip, err := Rewrite(compile(t, sql), n, false)
					if err != nil {
						t.Fatal(err)
					}
					rt := NewRuntimeOpts(ip, Options{Parallelism: par})
					base := NewRuntimeOpts(ip, Options{Parallelism: par, Baseline: true})
					if !rt.JoinIndexed() || base.JoinIndexed() {
						t.Fatalf("indexed %v, baseline indexed %v", rt.JoinIndexed(), base.JoinIndexed())
					}
					checkIndexRun(t, rt, base, n, q.bound, int64(1000*n+10*par+qi))
				})
			}
		}
	}
}

// checkIndexRun drives 500 generated slides through rt and base and checks
// every window (see TestPaneIndexMatchesBaseline).
func checkIndexRun(t *testing.T, rt, base *Runtime, n int, bound int64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var hist [2][]indexBW
	var compactions, records, peak [2]int
	emptyMinMax, wrapped := 0, 0
	for step := 0; step < 500; step++ {
		phase := step / 25 % 6 // 0 mixed, 1 one key, 2 wrapping values, 3 disjoint keys, 4 mixed, 5 a burst of rows
		var bw [][]vector.View
		for side := 0; side < 2; side++ {
			rows := 1 + rng.Intn(6)
			if phase == 5 {
				rows = 40 + rng.Intn(40)
			}
			if rng.Intn(6) == 0 {
				rows = 0
			}
			g := indexBW{x1: make([]int64, rows), x2: make([]int64, rows)}
			for i := range g.x1 {
				g.x1[i] = rng.Int63n(60)
				g.x2[i] = rng.Int63n(4)
				switch phase {
				case 1:
					g.x2[i] = 7
				case 2:
					g.x1[i] = math.MaxInt64 - rng.Int63n(8)
					if rng.Intn(2) == 0 {
						g.x1[i] = math.MinInt64 + rng.Int63n(8)
					}
				case 3:
					g.x2[i] += int64(100 * side)
				}
			}
			hist[side] = append(hist[side], g)
			bw = append(bw, []vector.View{splitView(g.x1), splitView(g.x2)})
		}
		in := make([]exec.Input, 2)
		want, _, werr := base.Step(bw, in)
		got, st, gerr := rt.Step(bw, in)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("step %d: error %v, baseline %v", step, gerr, werr)
		}
		if gerr == nil {
			if err := tablesEqual(want, got); err != nil {
				t.Fatalf("step %d: index diverges from baseline: %v\nwant %v\ngot %v", step, err, want, got)
			}
		}
		var probes [2]int64 // the new post-filter rows per side
		for side := 0; side < 2; side++ {
			for _, x := range hist[side][len(hist[side])-1].x1 {
				if side == 1 || keeps(x, bound) {
					probes[side]++
				}
			}
		}
		if st.JoinProbes != probes[0]+probes[1] {
			t.Fatalf("step %d: %d probes, want %d new post-filter rows", step, st.JoinProbes, probes[0]+probes[1])
		}
		for side := 0; side < 2; side++ {
			// One record per key of a live basic window's kept rows.
			x := &rt.index.sides[side]
			live, added := 0, 0
			for _, g := range hist[side][max(0, len(hist[side])-n):] {
				keys := map[int64]bool{}
				for i, v := range g.x1 {
					if side == 1 || keeps(v, bound) {
						keys[g.x2[i]] = true
					}
				}
				live += len(keys)
				added = len(keys) // the newest basic window's, last
			}
			if got := len(x.key) - x.floor; got != live {
				t.Fatalf("step %d: side %d index holds %d live records, want %d", step, side, got, live)
			}
			if len(x.key) < records[side]+added {
				compactions[side]++ // the insert dropped the dead records
			}
			records[side] = len(x.key)
			peak[side] = max(peak[side], len(x.heads))
		}
		if got == nil || gerr != nil {
			continue
		}
		count, sum, lo, hi, wrap := nestedLoopFold(hist[0][len(hist[0])-n:], hist[1][len(hist[1])-n:], bound)
		if got.NumRows() == 0 {
			// min and max over no pair yield no row, and the result with
			// them.
			if len(got.Cols) == 2 || count != 0 {
				t.Fatalf("step %d: empty result, nested loops give %d pairs", step, count)
			}
			emptyMinMax++
			continue
		}
		if c, s := got.Cols[0].Get(0).I, got.Cols[1].Get(0).I; c != count || s != sum {
			t.Fatalf("step %d: count %d sum %d, nested loops give %d and %d", step, c, s, count, sum)
		}
		if wrap {
			wrapped++
		}
		if len(got.Cols) > 2 {
			if mn, mx := got.Cols[2].Get(0).I, got.Cols[3].Get(0).I; mn != lo.v || mx != hi.v {
				t.Fatalf("step %d: min %d max %d, nested loops give %+v and %+v", step, mn, mx, lo, hi)
			}
		}
	}
	if compactions[0] < 10 || compactions[1] < 10 {
		t.Errorf("the index compacted only %v times", compactions)
	}
	for side, x := range rt.index.sides {
		if len(x.heads)*4 > peak[side] {
			t.Errorf("side %d keeps %d buckets after the bursts (peak %d)", side, len(x.heads), peak[side])
		}
	}
	if len(rt.ip.Panes) > 2 && emptyMinMax == 0 {
		t.Error("no window joined nothing: min and max over an empty matrix untested")
	}
	if bound == math.MaxInt64 && wrapped == 0 {
		t.Error("no window sum wrapped past the int64 range")
	}
}

// BenchmarkJoinIndex runs the benchmark's join_pair shape — the paper's
// Q2 with a 1-in-4 left filter, N = 32 basic windows of 512 rows per
// stream, 4096 join keys — through the join index at parallelism 1 and 4.
// join-ns/slide is the slide's join clock (StepStats.JoinNS: inserting,
// probing and folding), allocs/slide the allocations of a whole slide and
// probes/slide the index probes. Every new post-filter row probes exactly
// once, so the benchmark fails unless the probes equal those rows — a
// count, not a timing, so the gate is deterministic.
func BenchmarkJoinIndex(b *testing.B) {
	const n, rows, keys, bound = 32, 512, 4096, 250
	sql := fmt.Sprintf(`SELECT count(*), sum(s.x1) FROM s [RANGE %d SLIDE %d], s2 [RANGE %d SLIDE %d] WHERE s.x2 = s2.x2 AND s.x1 < %d`, n*rows, rows, n*rows, rows, bound)
	ip, err := Rewrite(compile(b, sql), n, false)
	if err != nil {
		b.Fatal(err)
	}
	// A pool of generated slides, cycled, and each one's new post-filter
	// rows of both sides.
	rng := rand.New(rand.NewSource(46))
	pool := make([][][]vector.View, 2*n)
	want := make([]int64, len(pool))
	for i := range pool {
		for side := 0; side < 2; side++ {
			x1, x2 := make([]int64, rows), make([]int64, rows)
			for r := range x1 {
				x1[r], x2[r] = rng.Int63n(1000), rng.Int63n(keys)
				if side == 1 || x1[r] < bound {
					want[i]++
				}
			}
			pool[i] = append(pool[i], []vector.View{vector.ViewOf(vector.FromInt64(x1)), vector.ViewOf(vector.FromInt64(x2))})
		}
	}
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			rt := NewRuntimeOpts(ip, Options{Parallelism: par})
			if !rt.JoinIndexed() {
				b.Fatal("join_pair's shape does not run through the join index")
			}
			in := make([]exec.Input, 2)
			for sl := 0; sl < n; sl++ {
				if _, _, err := rt.Step(pool[sl%len(pool)], in); err != nil {
					b.Fatal(err)
				}
			}
			var joinNS, probes, wantProbes int64
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sl := (n + i) % len(pool)
				_, st, err := rt.Step(pool[sl], in)
				if err != nil {
					b.Fatal(err)
				}
				joinNS += st.JoinNS
				probes += st.JoinProbes
				wantProbes += want[sl]
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(joinNS)/float64(b.N), "join-ns/slide")
			b.ReportMetric(float64(probes)/float64(b.N), "probes/slide")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/slide")
			if probes != wantProbes {
				b.Fatalf("%d probes over %d slides, want %d: one per new post-filter row", probes, b.N, wantProbes)
			}
		})
	}
}
