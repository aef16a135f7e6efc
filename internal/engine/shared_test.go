package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/vector"
)

// sharedTestEngine registers a stream with an integer and a float value
// column so parity checks cover float accumulation order too.
func sharedTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	err := e.RegisterStream("f", catalog.NewSchema(
		catalog.Column{Name: "x1", Type: vector.Int64},
		catalog.Column{Name: "x2", Type: vector.Int64},
		catalog.Column{Name: "x3", Type: vector.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sharedMixQueries is a 64-query mixed workload: several fragment-sharing
// cliques (same slide + filter + aggregates, different window lengths and
// HAVING thresholds) plus queries whose fragments differ and must not
// share. Index i's query is deterministic.
func sharedMixQueries(n int) []string {
	qs := make([]string, 0, n)
	for i := 0; len(qs) < n; i++ {
		switch i % 4 {
		case 0: // big clique: int grouped sum, window length + threshold vary
			qs = append(qs, fmt.Sprintf(
				`SELECT x1, sum(x2) FROM f [RANGE %d SLIDE 64] GROUP BY x1 HAVING sum(x2) > %d`,
				128+64*(i%3), 10*i))
		case 1: // float clique: accumulation order must survive sharing
			qs = append(qs, fmt.Sprintf(
				`SELECT x1, sum(x3) FROM f [RANGE %d SLIDE 64] GROUP BY x1`, 192+64*(i%2)))
		case 2: // distinct fragments: filter constant varies per query
			qs = append(qs, fmt.Sprintf(
				`SELECT x1, x2 FROM f [RANGE 64 SLIDE 64] WHERE x1 < %d`, 3+i%5))
		default: // scalar clique on a different slide
			qs = append(qs, `SELECT count(*), sum(x2), min(x2) FROM f [RANGE 256 SLIDE 128]`)
		}
	}
	return qs
}

func feedSharedMix(t *testing.T, e *Engine, seed int64, total, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for off := 0; off < total; off += batch {
		n := batch
		if total-off < n {
			n = total - off
		}
		x1 := make([]int64, n)
		x2 := make([]int64, n)
		x3 := make([]float64, n)
		for i := range x1 {
			x1[i] = rng.Int63n(7)
			x2[i] = rng.Int63n(1000)
			x3[i] = rng.Float64() * 100
		}
		cols := []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2), vector.FromFloat64(x3)}
		if err := e.AppendColumns("f", cols, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// runSharedMix executes the 64-query workload and returns each query's
// concatenated window results as canonical strings (row order preserved:
// the comparison is bit-exact, not set-based) plus the total adopted
// slide and adopted merge-head counts across all queries.
func runSharedMix(t *testing.T, par int, baseline bool, pumpPar int) (keys []string, slides, tails int64) {
	t.Helper()
	e := sharedTestEngine(t)
	e.streamLog("f").SetSealRows(96) // slides span segment boundaries
	queries := sharedMixQueries(64)
	cols := make([]*collector, len(queries))
	regs := make([]*ContinuousQuery, len(queries))
	for i, sql := range queries {
		cols[i] = &collector{}
		q, err := e.Register(sql, Options{
			Mode: Incremental, Parallelism: par,
			Baseline: baseline, OnResult: cols[i].add,
		})
		if err != nil {
			t.Fatalf("register %q: %v", sql, err)
		}
		regs[i] = q
	}
	feedSharedMix(t, e, 42, 4096, 160)
	var err error
	if pumpPar > 1 {
		_, err = e.PumpParallel(pumpPar)
	} else {
		_, err = e.Pump()
	}
	if err != nil {
		t.Fatal(err)
	}
	keys = make([]string, len(queries))
	for i, c := range cols {
		if len(c.results) == 0 {
			t.Fatalf("query %d (%s) produced no windows", i, queries[i])
		}
		var sb strings.Builder
		for _, r := range c.results {
			sb.WriteString(tableKey(r.Table, false))
			sb.WriteByte('|')
		}
		keys[i] = sb.String()
		st := regs[i].Stats()
		slides += st.AdoptedSlides
		tails += st.AdoptedTails
	}
	return keys, slides, tails
}

// TestSharedParityMixedWorkload is the acceptance harness: a 64-query
// mixed workload must produce bit-identical results with the shared-plan
// catalog (fragments and merge tails; the mix holds same-head cliques that
// differ only in their HAVING constant, and float sums) and as Baseline, at
// parallelism 1 and 4, across segment seal boundaries.
func TestSharedParityMixedWorkload(t *testing.T) {
	baseline, slides, tails := runSharedMix(t, 1, true, 1)
	if slides != 0 || tails != 0 {
		t.Fatalf("baseline adopted %d shared slides, %d merge heads", slides, tails)
	}
	for _, par := range []int{1, 4} {
		shared, slides, tails := runSharedMix(t, par, false, 1)
		if slides == 0 || tails == 0 {
			t.Fatalf("parallelism %d: sharing never engaged (%d slides, %d heads adopted)", par, slides, tails)
		}
		for i := range baseline {
			if shared[i] != baseline[i] {
				t.Fatalf("parallelism %d: query %d results diverge under sharing:\nshared  %s\nprivate %s",
					par, i, shared[i], baseline[i])
			}
		}
	}
}

// TestSharedParityConcurrentPump drives the same workload through
// PumpParallel so leaders and followers race across worker goroutines
// (exercised under -race in CI); results must still match the private
// sequential baseline exactly.
func TestSharedParityConcurrentPump(t *testing.T) {
	baseline, _, _ := runSharedMix(t, 1, true, 1)
	shared, slides, tails := runSharedMix(t, 2, false, 4)
	if slides == 0 || tails == 0 {
		t.Fatalf("sharing never engaged under concurrent pump (%d slides, %d heads adopted)", slides, tails)
	}
	for i := range baseline {
		if shared[i] != baseline[i] {
			t.Fatalf("query %d diverges under concurrent shared pump", i)
		}
	}
}

// TestSharedFragmentLifecycle covers the subscribe/unsubscribe refcount:
// fragments appear on registration, queries with identical fragments
// intern to one entry, unsubscribing mid-stream releases the refcount, and
// the last unsubscribe deletes the fragment and its cached partials.
func TestSharedFragmentLifecycle(t *testing.T) {
	e := sharedTestEngine(t)
	const sql1 = `SELECT x1, sum(x2) FROM f [RANGE 128 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 100`
	const sql2 = `SELECT x1, sum(x2) FROM f [RANGE 256 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 900`
	const sqlOther = `SELECT count(*) FROM f [RANGE 64 SLIDE 32]`
	var c1, c2 collector
	q1, err := e.Register(sql1, Options{Mode: Incremental, OnResult: c1.add})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Register(sql2, Options{Mode: Incremental, OnResult: c2.add})
	if err != nil {
		t.Fatal(err)
	}
	q3, err := e.Register(sqlOther, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	reg := e.sharesOf("f")
	// Two fragments (the q1+q2 clique, the scalar) and two merge tails: the
	// clique's window lengths differ, the scalar has no grouped head.
	if got := reg.size(); got != 4 {
		t.Fatalf("registry holds %d caches, want 4 (2 fragments + 2 tails)", got)
	}
	sf, _ := q1.sharing()
	sf2, _ := q2.sharing()
	sf3, _ := q3.sharing()
	if sf == nil || sf != sf2 {
		t.Fatal("q1 and q2 must intern the same fragment")
	}
	if sf == sf3 {
		t.Fatal("different slide must not share a fragment")
	}
	if got := sf.subscribers(); got != 2 {
		t.Fatalf("fragment has %d subscribers, want 2", got)
	}
	if !strings.Contains(q1.Explain(), "shared×2") {
		t.Errorf("Explain misses subscriber count:\n%s", q1.Explain())
	}

	// Drain some slides, then unsubscribe q2 mid-stream.
	feedSharedMix(t, e, 7, 1024, 128)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	if q2.Stats().AdoptedSlides == 0 {
		t.Fatal("q2 never adopted a shared slide")
	}
	if got := sf.cached(); got != 0 {
		t.Fatalf("%d partials cached after full drain (prune failed)", got)
	}
	e.Deregister(q2)
	if got := sf.subscribers(); got != 1 {
		t.Fatalf("fragment has %d subscribers after deregister, want 1", got)
	}
	if f, tl := q2.sharing(); f != nil || tl != nil {
		t.Fatal("deregistered query still holds its fragment")
	}

	// The survivor keeps producing correct results against a Baseline twin.
	var ref collector
	if _, err := e.Register(sql1, Options{Mode: Incremental, Baseline: true, OnResult: ref.add}); err != nil {
		t.Fatal(err)
	}
	before := len(c1.results)
	feedSharedMix(t, e, 8, 1024, 128)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	// The survivor's first fresh window still spans rows fed before the twin
	// registered (RANGE > SLIDE), so align both sequences on their tails.
	fresh := c1.results[before:]
	if len(fresh) <= 1 || len(ref.results) == 0 {
		t.Fatalf("post-deregister windows: shared %d private %d", len(fresh), len(ref.results))
	}
	n := len(ref.results)
	if len(fresh) < n {
		n = len(fresh)
	}
	for i := 1; i <= n; i++ {
		a := fresh[len(fresh)-i]
		b := ref.results[len(ref.results)-i]
		if tableKey(a.Table, false) != tableKey(b.Table, false) {
			t.Fatalf("window %d-from-end diverges after mid-stream unsubscribe", i)
		}
	}

	// Last subscribers out: the caches disappear from the registry (the
	// Baseline twin never attached, so nothing is left behind).
	e.Deregister(q1)
	e.Deregister(q3)
	if got := reg.size(); got != 0 {
		t.Fatalf("registry holds %d caches after deregistering every subscriber, want 0", got)
	}
}
