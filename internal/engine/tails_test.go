package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/core"
	"datacell/internal/vector"
)

// TestSharedTailLifecycle covers merge-tail sharing: queries with the
// same fragment, window length and head shape but different HAVING
// thresholds share one merge tail in their slide group; different window
// lengths do not; heads are adopted during pumping, and the group
// disappears when its last member deregisters.
func TestSharedTailLifecycle(t *testing.T) {
	e := sharedTestEngine(t)
	const sqlA = `SELECT x1, sum(x2) FROM f [RANGE 128 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 100`
	const sqlB = `SELECT x1, sum(x2) FROM f [RANGE 128 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 12000`
	const sqlOtherN = `SELECT x1, sum(x2) FROM f [RANGE 256 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 100`
	var cA, cB collector
	qA, err := e.Register(sqlA, Options{Mode: Incremental, OnResult: cA.add})
	if err != nil {
		t.Fatal(err)
	}
	qB, err := e.Register(sqlB, Options{Mode: Incremental, OnResult: cB.add})
	if err != nil {
		t.Fatal(err)
	}
	qN, err := e.Register(sqlOtherN, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	qBase, err := e.Register(sqlA, Options{Mode: Incremental, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	// Chunked processing shares nothing: its delta state is its own.
	qChunked, err := e.Register(sqlA, Options{Mode: Incremental, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}

	if qA.tailKey == "" || qA.tailKey != qB.tailKey || qA.grp != qB.grp {
		t.Fatal("qA and qB must intern the same merge tail")
	}
	if qN.tailKey == qA.tailKey {
		t.Fatal("different window length must not share a merge tail")
	}
	if qN.tailKey == "" {
		t.Fatal("qN should intern its own merge tail")
	}
	if qBase.grp.key != "" || qBase.tailKey != "" {
		t.Fatal("Baseline query must attach neither a fragment nor a tail")
	}
	if got := qA.grp.tailMembers(qA.tailKey); got != 2 {
		t.Fatalf("tail has %d subscribers, want 2", got)
	}
	if ex := qA.Explain(); !strings.Contains(ex, "merge shared×2, delta state shared\n") {
		t.Errorf("Explain misses merge tail and delta state sharing:\n%s", ex)
	}
	if ex := qBase.Explain(); !strings.Contains(ex, "fragment sharing: off") || strings.Contains(ex, "delta state") {
		t.Errorf("Explain misses the Baseline query's private evaluation:\n%s", ex)
	}
	if ex := qChunked.Explain(); !strings.Contains(ex, "merge tail: private, delta state private\n") {
		t.Errorf("Explain misses the chunked query's private delta state:\n%s", ex)
	}

	feedSharedMix(t, e, 11, 2048, 256)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	sA, sB := qA.Stats(), qB.Stats()
	if sA.AdoptedTails+sB.AdoptedTails == 0 {
		t.Fatalf("no merge head was ever adopted (qA %d/%d, qB %d/%d)",
			sA.AdoptedTails, sA.LedTails, sB.AdoptedTails, sB.LedTails)
	}
	if sA.LedTails+sB.LedTails == 0 {
		t.Fatal("no merge head was ever led")
	}
	if s := qBase.Stats(); s.AdoptedTails != 0 || s.LedTails != 0 || s.AdoptedSlides != 0 || s.LedSlides != 0 {
		t.Fatalf("Baseline query touched the catalog: %+v", s)
	}

	// Residual tails must differ: same head, different HAVING thresholds.
	if len(cA.results) == 0 || len(cB.results) == 0 {
		t.Fatal("no windows")
	}
	same := true
	for i := range cA.results {
		if i >= len(cB.results) {
			break
		}
		if tableKey(cA.results[i].Table, false) != tableKey(cB.results[i].Table, false) {
			same = false
		}
	}
	if same {
		t.Fatal("different HAVING thresholds produced identical result streams — residuals not applied?")
	}

	e.Deregister(qB)
	if got := qA.grp.tailMembers(qA.tailKey); got != 1 {
		t.Fatalf("tail has %d subscribers after deregister, want 1", got)
	}
	if slices.Contains(qA.grp.snapshot(), qB) {
		t.Fatal("deregistered query still holds its tail")
	}
	e.Deregister(qA)
	e.Deregister(qN)
	e.Deregister(qBase)
	e.Deregister(qChunked)
	if n := len(e.groupsOf("f")); n != 0 {
		t.Fatalf("registry holds %d caches after deregistering every subscriber, want 0", n)
	}
}

// tailDeltas sums the adds and rebuilds of every delta state held by the
// groups and counts the states.
func tailDeltas(gs []*group) (sum core.DeltaState, states int) {
	for _, g := range gs {
		g.mu.Lock()
		for _, hs := range g.states {
			st := hs.state.Stats()
			sum.Adds += st.Adds
			sum.Rebuilds += st.Rebuilds
			states++
		}
		g.mu.Unlock()
	}
	return sum, states
}

// runPair registers sql twice per offset — shared and Baseline — with the
// offsets' rows appended in between, feeds the stream in ragged batches,
// pumping after each, and requires every shared query's windows to equal
// its Baseline twin's bit for bit.
func runPair(t *testing.T, e *Engine, sqls []string, offsets []int, opts []Options, feed func(rows int), batches []int, pump func()) []*ContinuousQuery {
	t.Helper()
	var qs []*ContinuousQuery
	cs := make([][2]collector, len(sqls))
	for i, sql := range sqls {
		feed(offsets[i])
		for j, base := range []bool{false, true} {
			o := opts[i]
			o.Baseline, o.OnResult = base, cs[i][j].add
			q, err := e.Register(sql, o)
			if err != nil {
				t.Fatal(err)
			}
			if !base {
				qs = append(qs, q)
			}
		}
	}
	for _, n := range batches {
		feed(n)
		pump()
	}
	for i := range cs {
		got, want := cs[i][0].results, cs[i][1].results
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("query %d: %d windows, Baseline %d", i, len(got), len(want))
		}
		for w := range got {
			if tableKey(got[w].Table, false) != tableKey(want[w].Table, false) {
				t.Fatalf("query %d window %d diverges from Baseline", i, w+1)
			}
		}
	}
	return qs
}

// feeder appends n rows of stream f per call from one seeded generator.
func feeder(t *testing.T, e *Engine, seed int64) func(int) {
	rng := rand.New(rand.NewSource(seed))
	return func(n int) {
		t.Helper()
		if n == 0 {
			return
		}
		x1, x2, x3 := make([]int64, n), make([]int64, n), make([]float64, n)
		for i := range x1 {
			x1[i], x2[i] = rng.Int63n(9), rng.Int63n(1000)
		}
		if err := e.AppendColumns("f", []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2), vector.FromFloat64(x3)}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTailDeltaPerPhase registers two look-alike queries 100 rows apart
// on SLIDE 256: they share one merge tail but never a window end, so the
// tail keeps one delta state per phase, each built exactly once and then
// stepped once per slide — one state between them would be rebuilt on
// every slide.
func TestTailDeltaPerPhase(t *testing.T) {
	e := sharedTestEngine(t)
	sqls := []string{
		`SELECT x1, sum(x2), count(*) FROM f [RANGE 1024 SLIDE 256] GROUP BY x1 HAVING count(*) > 20`,
		`SELECT x1, sum(x2), count(*) FROM f [RANGE 1024 SLIDE 256] GROUP BY x1 HAVING count(*) > 30`,
	}
	batches := make([]int, 60)
	for i := range batches {
		batches[i] = 100 + 37*(i%5)
	}
	opts := []Options{{Mode: Incremental}, {Mode: Incremental}}
	qs := runPair(t, e, sqls, []int{0, 100}, opts, feeder(t, e, 3), batches, func() {
		if _, err := e.Pump(); err != nil {
			t.Fatal(err)
		}
	})
	g := qs[0].grp
	if qs[0].tailKey == "" || qs[0].tailKey != qs[1].tailKey || g != qs[1].grp {
		t.Fatal("the two queries must share one merge tail")
	}
	if qs[0].tailPhase == qs[1].tailPhase {
		t.Fatalf("both queries at phase %d", qs[0].tailPhase)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.states) != 2 {
		t.Fatalf("tail holds %d delta states, want one per phase (2)", len(g.states))
	}
	for phase, pd := range g.states {
		if st := pd.state.Stats(); st.Rebuilds != 1 || st.Adds == 0 {
			t.Fatalf("phase %d: %+v, want exactly one rebuild", phase.phase, st)
		}
	}
}

// TestTailDeltaLateLeader registers a look-alike query at the same phase
// while the first still has a 200-slide backlog, then drains 1040 more
// slides through PumpParallel: the late query leads window ends ahead of
// the one the other is leading, both on one delta state, whose tag check
// makes whichever lands out of turn rebuild. Results must equal Baseline.
func TestTailDeltaLateLeader(t *testing.T) {
	e := sharedTestEngine(t)
	const slide = 16
	sqls := []string{
		`SELECT x1, sum(x2), count(*) FROM f [RANGE 128 SLIDE 16] GROUP BY x1 HAVING count(*) > 1`,
		`SELECT x1, sum(x2), count(*) FROM f [RANGE 128 SLIDE 16] GROUP BY x1 HAVING count(*) > 2`,
	}
	batches := make([]int, 26)
	for i := range batches {
		batches[i] = 40 * slide
	}
	opts := []Options{{Mode: Incremental, Parallelism: 4}, {Mode: Incremental}}
	qs := runPair(t, e, sqls, []int{0, 200 * slide}, opts, feeder(t, e, 4), batches, func() {
		if _, err := e.PumpParallel(4); err != nil {
			t.Fatal(err)
		}
	})
	if qs[0].tailPhase != qs[1].tailPhase {
		t.Fatal("the queries must share a phase")
	}
	for i, q := range qs {
		if st := q.Stats(); st.LedTails == 0 || st.Windows < 1000 {
			t.Fatalf("query %d led %d windows of %d", i, st.LedTails, st.Windows)
		}
	}
	if sum, states := tailDeltas(e.groupsOf("f")); states != 1 || sum.Adds == 0 {
		t.Fatalf("%d delta states, %+v", states, sum)
	}
}

// TestSoloTailHeadInScratch registers one grouped query whose HAVING keeps
// a few of ~14 000 live groups. Alone on its merge tail it has nobody to
// hand a head to, so its delta block emits into the runtime's scratch and
// a slide allocates well under one head. Once a look-alike joins its slide
// group the first member captures fresh heads again, and the look-alike
// adopts them.
func TestSoloTailHeadInScratch(t *testing.T) {
	e := New()
	col := func(n string) catalog.Column { return catalog.Column{Name: n, Type: vector.Int64} }
	if err := e.RegisterStream("s", catalog.NewSchema(col("k"), col("v"))); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT k, sum(v), count(*) FROM s [RANGE 16384 SLIDE 512] GROUP BY k HAVING count(*) > %d"
	q1, err := e.Register(fmt.Sprintf(sql, 4), Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	if q1.tailState == nil {
		t.Fatal("the query must subscribe to a merge tail")
	}
	rng := rand.New(rand.NewSource(2))
	// pumpBytes appends and pumps slides one at a time and returns the
	// bytes allocated per Pump.
	pumpBytes := func(slides int) float64 {
		var total uint64
		for i := 0; i < slides; i++ {
			k, v := make([]int64, 512), make([]int64, 512)
			for j := range k {
				k[j], v[j] = rng.Int63n(65536), rng.Int63n(1000)
			}
			if err := e.AppendColumns("s", []*vector.Vector{vector.FromInt64(k), vector.FromInt64(v)}, nil); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := e.Pump(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return float64(total) / float64(slides)
	}
	pumpBytes(64) // fill the window, let the state and scratch settle
	// One head is the key column and two totals per live group.
	head := float64(24 * q1.tailState.Stats().Groups)
	solo := pumpBytes(8)
	t.Logf("solo: %.0f B per slide, one head %.0f B", solo, head)
	if 2*solo > head {
		t.Fatalf("a solo tail allocates %.0f B per slide, over half a head (%.0f B): the head is not in scratch", solo, head)
	}

	q2, err := e.Register(fmt.Sprintf(sql, 5), Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	if q2.tailKey != q1.tailKey || q2.tailPhase != q1.tailPhase {
		t.Fatal("the look-alike must share the tail and its phase")
	}
	pumpBytes(40)
	shared := pumpBytes(8)
	t.Logf("shared: %.0f B per slide", shared)
	if shared < head {
		t.Fatalf("a shared tail allocates %.0f B per slide, under one head (%.0f B): heads are not published fresh", shared, head)
	}
	if q1.Stats().AdoptedTails+q2.Stats().AdoptedTails == 0 {
		t.Fatal("no head was adopted once the tail was shared")
	}
}

// TestTailDeltaFilterLifecycle follows the HAVING filter a solo query
// keeps in its merge tail's delta state. Alone, the query registers its
// filter; once a look-alike with another HAVING joins, heads are captured
// whole and the filter is dropped; when the look-alike leaves,
// the filter comes back. Then 50 look-alikes with distinct HAVING
// constants take turns on the same state — each registered before its
// predecessor leaves, so the state lives throughout — and the state
// still keeps one filter, not one per constant. Every query's windows
// are bit-identical to a Baseline twin registered alongside it.
func TestTailDeltaFilterLifecycle(t *testing.T) {
	e := New()
	col := func(n string) catalog.Column { return catalog.Column{Name: n, Type: vector.Int64} }
	if err := e.RegisterStream("s", catalog.NewSchema(col("k"), col("v"))); err != nil {
		t.Fatal(err)
	}
	type pair struct {
		q, ref    *ContinuousQuery
		got, want collector
	}
	register := func(having string) *pair {
		p := &pair{}
		sql := "SELECT k, sum(v), count(*) FROM s [RANGE 64 SLIDE 16] GROUP BY k HAVING " + having
		var err error
		if p.q, err = e.Register(sql, Options{Mode: Incremental, OnResult: p.got.add}); err != nil {
			t.Fatal(err)
		}
		if p.ref, err = e.Register(sql, Options{Mode: Incremental, Baseline: true, OnResult: p.want.add}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	leave := func(p *pair) {
		e.Deregister(p.q)
		e.Deregister(p.ref)
	}
	check := func(p *pair) {
		t.Helper()
		if len(p.got.results) != len(p.want.results) || len(p.got.results) == 0 {
			t.Fatalf("%d windows, Baseline twin %d", len(p.got.results), len(p.want.results))
		}
		for w, r := range p.got.results {
			if got, want := tableKey(r.Table, false), tableKey(p.want.results[w].Table, false); got != want {
				t.Fatalf("window %d differs from the Baseline twin:\n got %s\nwant %s", w+1, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(45))
	feed := func(slides int) {
		t.Helper()
		for i := 0; i < slides; i++ {
			k, v := make([]int64, 16), make([]int64, 16)
			for j := range k {
				k[j], v[j] = rng.Int63n(12), rng.Int63n(100)
			}
			if err := e.AppendColumns("s", []*vector.Vector{vector.FromInt64(k), vector.FromInt64(v)}, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Pump(); err != nil {
				t.Fatal(err)
			}
		}
	}

	p1 := register("count(*) > 5")
	if p1.q.tailState == nil {
		t.Fatal("the query must subscribe to a merge tail")
	}
	state := p1.q.tailState
	filters := func(want int, when string) {
		t.Helper()
		if got := state.Stats().Filters; got != want {
			t.Fatalf("%s: %d filters in the delta state, want %d", when, got, want)
		}
	}
	feed(8)
	filters(1, "solo")
	p2 := register("count(*) > 6")
	if p2.q.tailKey != p1.q.tailKey || p2.q.tailPhase != p1.q.tailPhase {
		t.Fatal("the look-alike must share the tail and its phase")
	}
	feed(8)
	filters(0, "shared")
	leave(p2)
	feed(4)
	filters(1, "solo again")
	check(p1)
	check(p2)

	prev := p1
	for i := 0; i < 50; i++ {
		p := register(fmt.Sprintf("sum(v) > %d", 100+7*i))
		feed(4)
		leave(prev)
		feed(4)
		check(p)
		prev = p
	}
	if prev.q.tailState != state {
		t.Fatal("the churn replaced the tail's delta state")
	}
	filters(1, "after 50 look-alikes took turns")
}

// BenchmarkTailFanout drives the 64-query fan-out shape — 4 filters x 4
// ranges x 4 HAVINGs over SLIDE 256 and 64 keys: 4 slide groups (one per
// filter) holding 16 merge tails — through Pump one slide at a time. It
// reports the partials added per slide, summed over the distinct delta
// states, and the fragment evaluations per slide, summed over the
// queries, and fails unless they are exactly 16 (one add per tail, not one
// per query) and 4 (one evaluation per group, the other 60 queries adopt).
func BenchmarkTailFanout(b *testing.B) {
	e := New()
	col := func(n string) catalog.Column { return catalog.Column{Name: n, Type: vector.Int64} }
	if err := e.RegisterStream("s", catalog.NewSchema(col("k"), col("v"))); err != nil {
		b.Fatal(err)
	}
	var qs []*ContinuousQuery
	for _, a := range []int{0, 100, 200, 300} {
		for _, r := range []int{1024, 2048, 4096, 8192} {
			for _, h := range []int{0, 1, 2, 3} {
				sql := fmt.Sprintf("SELECT k, sum(v), count(*) FROM s [RANGE %d SLIDE 256] WHERE v >= %d GROUP BY k HAVING count(*) > %d", r, a, h)
				q, err := e.Register(sql, Options{Mode: Incremental})
				if err != nil {
					b.Fatal(err)
				}
				qs = append(qs, q)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	slide := func() {
		k, v := make([]int64, 256), make([]int64, 256)
		for i := range k {
			k[i], v[i] = rng.Int63n(64), rng.Int63n(1000)
		}
		if err := e.AppendColumns("s", []*vector.Vector{vector.FromInt64(k), vector.FromInt64(v)}, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Pump(); err != nil {
			b.Fatal(err)
		}
	}
	// evals sums the slides the queries evaluated and adopted.
	evals := func() (led, adopted int64) {
		for _, q := range qs {
			st := q.Stats()
			led += st.LedSlides
			adopted += st.AdoptedSlides
		}
		return led, adopted
	}
	for i := 0; i < 8192/256; i++ {
		slide() // fills every window: each state is built once
	}
	before, _ := tailDeltas(e.groupsOf("s"))
	led0, adopted0 := evals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slide()
	}
	b.StopTimer()
	after, states := tailDeltas(e.groupsOf("s"))
	led, adopted := evals()
	adds := after.Adds - before.Adds
	b.ReportMetric(float64(adds)/float64(b.N), "adds/slide")
	b.ReportMetric(float64(led-led0)/float64(b.N), "evals/slide")
	if adds != 16*b.N || after.Rebuilds != before.Rebuilds || states != 16 {
		b.Fatalf("%d delta states added %d partials and rebuilt %d times over %d slides; want 16 states adding 16 per slide, no rebuild",
			states, adds, after.Rebuilds-before.Rebuilds, b.N)
	}
	if led-led0 != 4*int64(b.N) || adopted-adopted0 != 60*int64(b.N) {
		b.Fatalf("%d slides evaluated and %d adopted over %d slides; want 4 and 60 per slide",
			led-led0, adopted-adopted0, b.N)
	}
}
