package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"datacell/internal/vector"
)

// TestOneFiringPathDifferential is the differential test of the one
// incremental firing path. Every statement shape that used to fire through
// a path of its own — the one-slide step, the private slide batch, the
// shared-fragment batch, the chunked step — runs as
//
//	{default, Baseline} x parallelism {1, 4} x {one slide per Pump, the
//	whole 40-slide backlog drained in one Pump}
//
// plus two default arms drained by PumpParallel and one that pumps the
// twins one slide at a time in alternating order, and every arm must emit
// the identical window sequence, bit for bit and in row order, equal to
// Mode: Reevaluation. Each arm registers the statement twice on one stream,
// so the default arms of the shareable shapes exercise leader and follower
// (the Baseline arms must share nothing); under PumpParallel the twins race
// for every slide and window end, and in the alternating arm fragment and
// merge-tail leadership provably flips between them on every slide — which
// a delta-maintained merge state only survives if it advances on adopted
// slides too. Every grouped shape also asserts the merge kernel it ran: the
// invertible single-key blocks took the delta path in the default arms and
// only there; float sums, min/max and join-fed blocks never did. It
// subsumes the arms of the former per-feature suites that only toggled a
// since-deleted opt-out switch: shared vs private time windows, shared vs
// private merge tails, greedy vs written-order grouped joins.
func TestOneFiringPathDifferential(t *testing.T) {
	const slides, slide = 40, 8
	shapes := []struct {
		name, sql string
		chunks    int
		timed     bool // time window: slides close by watermark
		sorted    bool // row order is unspecified against re-evaluation
		shares    bool // eligible for the shared-plan catalog
		delta     bool // the grouped merge block is delta-maintained by default
	}{
		{name: "scalar", shares: true,
			sql: `SELECT count(*), sum(x2), min(x2), max(x2) FROM s [RANGE 32 SLIDE 8] WHERE x1 > 3`},
		{name: "grouped-having", shares: true, delta: true,
			sql: `SELECT x1, sum(x2), count(*) FROM s [RANGE 32 SLIDE 8] GROUP BY x1 HAVING sum(x2) > 100`},
		{name: "grouped-one-bw", shares: true, delta: true,
			sql: `SELECT x1, count(*) FROM s [RANGE 8 SLIDE 8] WHERE x2 > 20 GROUP BY x1`},
		{name: "grouped-float-sum", shares: true,
			sql: `SELECT x1, sum(x2 * 0.5), count(*) FROM s [RANGE 32 SLIDE 8] GROUP BY x1`},
		{name: "grouped-max", shares: true,
			sql: `SELECT x1, max(x2), count(*) FROM s [RANGE 32 SLIDE 8] GROUP BY x1`},
		{name: "grouped-join-fed", sorted: true, // groups follow matrix-cell order
			sql: `SELECT s.x1, count(*), sum(s2.x1) FROM s [RANGE 32 SLIDE 8], s2 [RANGE 32 SLIDE 8] WHERE s.x2 = s2.x2 GROUP BY s.x1`},
		{name: "stream-stream-join",
			sql: `SELECT count(*), sum(s.x1), max(s2.x1) FROM s [RANGE 32 SLIDE 8], s2 [RANGE 32 SLIDE 8] WHERE s.x2 = s2.x2`},
		{name: "stream-stream-join-raw", sorted: true,
			sql: `SELECT s.x1, s2.x1 FROM s [RANGE 16 SLIDE 8], s2 [RANGE 16 SLIDE 8] WHERE s.x2 = s2.x2 AND s.x1 < 4`},
		{name: "stream-table-join",
			sql: `SELECT sum(tab.val), count(*) FROM s [RANGE 32 SLIDE 8], tab WHERE s.x1 = tab.key`},
		{name: "landmark",
			sql: `SELECT x1, sum(x2) FROM s [LANDMARK SLIDE 8] GROUP BY x1`},
		{name: "time-window", timed: true, shares: true, delta: true,
			sql: `SELECT x1, sum(x2), count(*) FROM s [RANGE 4 SECONDS SLIDE 1 SECONDS] GROUP BY x1`},
		{name: "chunked", chunks: 4, delta: true,
			sql: `SELECT x1, sum(x2), count(*) FROM s [RANGE 32 SLIDE 8] WHERE x1 > 2 GROUP BY x1`},
	}
	type arm struct {
		name     string
		opts     Options
		perSlide bool
		pumpPar  int  // > 0: drain with PumpParallel(pumpPar) instead of Pump
		flip     bool // pump the twins directly, the other one first each slide
	}
	arms := []arm{{name: "reevaluation", opts: Options{Mode: Reevaluation}}}
	for _, baseline := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			for _, perSlide := range []bool{true, false} {
				name := fmt.Sprintf("baseline=%v/par=%d/perSlide=%v", baseline, par, perSlide)
				arms = append(arms, arm{name: name, opts: Options{Mode: Incremental, Parallelism: par, Baseline: baseline}, perSlide: perSlide})
			}
		}
	}
	for _, perSlide := range []bool{true, false} {
		arms = append(arms, arm{name: fmt.Sprintf("pump-parallel/perSlide=%v", perSlide), opts: Options{Mode: Incremental, Parallelism: 1}, perSlide: perSlide, pumpPar: 2})
	}
	arms = append(arms, arm{name: "alternating-leader", opts: Options{Mode: Incremental, Parallelism: 1}, perSlide: true, flip: true})

	// feed appends slide number sl (identical in every arm) to both streams.
	// Time-window slides are bursty — ragged tuple counts, some periods
	// empty — and end with the watermark that closes them.
	feed := func(t *testing.T, e *Engine, rng *rand.Rand, sl int, timed bool) {
		t.Helper()
		n := slide
		var ts []int64
		if timed {
			n = rng.Intn(2 * slide)
			if sl%7 == 3 {
				n = 0
			}
			ts = make([]int64, n)
			for i := range ts {
				ts[i] = int64(sl)*1_000_000 + int64(i)*(1_000_000/int64(n))
			}
		}
		for _, s := range []string{"s", "s2"} {
			x1 := make([]int64, n)
			x2 := make([]int64, n)
			for i := range x1 {
				x1[i] = rng.Int63n(8)
				x2[i] = rng.Int63n(100)
			}
			if n > 0 {
				if err := e.AppendColumns(s, []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}, ts); err != nil {
					t.Fatal(err)
				}
			}
			if timed {
				if err := e.SetWatermark(s, int64(sl+1)*1_000_000); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var want []string // the re-evaluation arm's window sequence
			var wantExact []string
			for ai, a := range arms {
				e := newTestEngine(t)
				e.streamLog("s").SetSealRows(20) // slides span segment boundaries
				e.streamLog("s2").SetSealRows(20)
				keys := make([]int64, 8)
				vals := make([]int64, 8)
				for i := range keys {
					keys[i], vals[i] = int64(i), int64(10*i+1)
				}
				if err := e.InsertTable("tab", []*vector.Vector{vector.FromInt64(keys), vector.FromInt64(vals)}); err != nil {
					t.Fatal(err)
				}
				var cs [2]collector
				var qs [2]*ContinuousQuery
				for i := range cs {
					opts := a.opts
					opts.OnResult = cs[i].add
					if opts.Mode == Incremental {
						opts.Chunks = sh.chunks
					}
					q, err := e.Register(sh.sql, opts)
					if err != nil {
						t.Fatalf("%s: %v", a.name, err)
					}
					qs[i] = q
				}
				pump := func(sl int) {
					t.Helper()
					var err error
					switch {
					case a.flip:
						if _, err = qs[sl%2].pump(); err == nil {
							_, err = qs[1-sl%2].pump()
						}
					case a.pumpPar > 0:
						_, err = e.PumpParallel(a.pumpPar)
					default:
						_, err = e.Pump()
					}
					if err != nil {
						t.Fatalf("%s: pump: %v", a.name, err)
					}
				}
				rng := rand.New(rand.NewSource(2013))
				for sl := 0; sl < slides; sl++ {
					feed(t, e, rng, sl, sh.timed)
					if a.perSlide {
						pump(sl)
					}
				}
				pump(slides)

				for i := range cs {
					got := make([]string, len(cs[i].results))
					exact := make([]string, len(cs[i].results))
					for w, r := range cs[i].results {
						if r.Window != w+1 {
							t.Fatalf("%s: query %d emitted window %d at position %d", a.name, i, r.Window, w+1)
						}
						got[w] = tableKey(r.Table, sh.sorted)
						exact[w] = tableKey(r.Table, false)
					}
					if ai == 0 && i == 0 {
						if len(got) < slides/2 {
							t.Fatalf("reference emitted only %d windows", len(got))
						}
						want = got
						continue
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: query %d diverges from re-evaluation:\n got %v\nwant %v", a.name, i, got, want)
					}
					// Among the incremental arms even unspecified row order
					// must agree: they are the same computation.
					if a.opts.Mode == Incremental {
						if wantExact == nil {
							wantExact = exact
						} else if fmt.Sprint(exact) != fmt.Sprint(wantExact) {
							t.Fatalf("%s: query %d row order differs from the first incremental arm", a.name, i)
						}
					}
				}

				if a.opts.Mode != Incremental {
					continue
				}
				// The arm must have taken the path it claims.
				s0, s1 := qs[0].Stats(), qs[1].Stats()
				adopted := s0.AdoptedSlides + s1.AdoptedSlides
				switch {
				case a.opts.Baseline && (adopted != 0 || s0.LedSlides+s0.LedTails+s0.AdoptedTails != 0):
					t.Fatalf("%s: Baseline query touched the catalog: %+v", a.name, s0)
				case !a.opts.Baseline && sh.shares && adopted == 0:
					t.Fatalf("%s: twin queries never shared a slide", a.name)
				case !sh.shares && adopted != 0:
					t.Fatalf("%s: ineligible shape adopted %d slides", a.name, adopted)
				}
				for i, q := range qs {
					if got, want := q.rt.DeltaState().Blocks > 0, sh.delta && !a.opts.Baseline; got != want {
						t.Fatalf("%s: query %d delta-maintained merge = %v, want %v\n%s", a.name, i, got, want, q.Explain())
					}
				}
				if a.flip && sh.shares {
					// Both twins led and both adopted: leadership flipped.
					for i, st := range []Stats{s0, s1} {
						if st.LedSlides < slides/4 || st.AdoptedSlides < slides/4 {
							t.Fatalf("%s: query %d led %d / adopted %d slides: leadership did not alternate", a.name, i, st.LedSlides, st.AdoptedSlides)
						}
						if _, tail := qs[i].sharing(); tail != nil && (st.LedTails < slides/4 || st.AdoptedTails < slides/4) {
							t.Fatalf("%s: query %d led %d / adopted %d merge tails: leadership did not alternate", a.name, i, st.LedTails, st.AdoptedTails)
						}
					}
				}
				batched := s0.BatchedSlides > 0
				if wantBatch := a.opts.Parallelism > 1 && !a.perSlide && sh.chunks == 0 && sh.name != "landmark"; batched != wantBatch {
					t.Fatalf("%s: batched=%v, want %v", a.name, batched, wantBatch)
				}
			}
		})
	}
}
