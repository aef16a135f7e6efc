package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"datacell/internal/vector"
)

// deltaPartial is one basic window's partial as the merge stage sees it.
type deltaPartial struct {
	keys []int64
	vals [][]int64
}

// sums returns n AggSum kinds: the invertible state most tests drive.
func sums(n int) []AggKind { return make([]AggKind, n) }

// naiveFold is the reference: the live partials concatenated and grouped
// row by row on a map, groups in first-occurrence order, each aggregate
// folded by its kind — what the block's own GROUP BY instructions compute.
func naiveFold(live []deltaPartial, kinds []AggKind) (keys []int64, aggs [][]int64) {
	at := map[int64]int{}
	aggs = make([][]int64, len(kinds))
	for _, p := range live {
		for i, k := range p.keys {
			g, seen := at[k]
			if !seen {
				at[k] = len(keys)
				keys = append(keys, k)
				for a := range kinds {
					aggs[a] = append(aggs[a], p.vals[a][i])
				}
				continue
			}
			for a, kind := range kinds {
				v, tot := p.vals[a][i], &aggs[a][g]
				switch kind {
				case AggSum:
					*tot += v
				case AggMin:
					*tot = min(*tot, v)
				case AggMax:
					*tot = max(*tot, v)
				}
			}
		}
	}
	return keys, aggs
}

// vecEqual compares two integer columns exactly, type included;
// Vector.String() truncates, so it cannot stand in for equality here.
func vecEqual(a, b *vector.Vector) bool {
	return a.Type() == b.Type() && slices.Equal(a.Int64s(), b.Int64s())
}

// slide advances a Delta and its mirror of live partials by one basic
// window over an n-partial window: expire first, then add, as core does.
func slide(t *testing.T, d *Delta, live []deltaPartial, n int, p deltaPartial) []deltaPartial {
	t.Helper()
	if len(live) == n {
		if !d.Expire(live[0].keys, live[0].vals) {
			t.Fatal("Expire rejected the oldest partial")
		}
		live = live[1:]
	}
	d.Add(p.keys, p.vals)
	return append(live, p)
}

// checkDelta compares Emit with naiveFold over live — keys, their order,
// every aggregate and the column types — and the state's accounting.
func checkDelta(t *testing.T, ctx string, d *Delta, live []deltaPartial) {
	t.Helper()
	wantK, wantA := naiveFold(live, d.kinds)
	gotK, gotA := d.Emit(nil)
	if gotK.Type() != d.keyTyp || !slices.Equal(gotK.Int64s(), wantK) {
		t.Fatalf("%s: keys (or their order) differ:\n got %v %v\nwant %v", ctx, gotK.Type(), gotK.Int64s(), wantK)
	}
	for a := range wantA {
		if gotA[a].Type() != d.aggTyps[a] || !slices.Equal(gotA[a].Int64s(), wantA[a]) {
			t.Fatalf("%s: %s agg %d differs:\n got %v %v\nwant %v", ctx, d.kinds[a], a, gotA[a].Type(), gotA[a].Int64s(), wantA[a])
		}
	}
	rows := 0
	for _, p := range live {
		rows += len(p.keys)
	}
	if d.Groups() != len(wantK) || d.Rows() != rows || d.Partials() != len(live) {
		t.Fatalf("%s: accounting groups=%d rows=%d partials=%d, want %d %d %d",
			ctx, d.Groups(), d.Rows(), d.Partials(), len(wantK), rows, len(live))
	}
}

// adversarialKeys are key sequences the state's hashtable and chains must
// survive: every row in one group, one row per group, keys stepping by a
// large power of two (after the hash multiply these walk aliased bucket
// sequences, forcing long probe chains), and plain random domains.
func adversarialKeys(rows int, rng *rand.Rand) map[string][]int64 {
	sets := map[string][]int64{}
	for _, name := range []string{"all-rows-one-key", "one-row-per-group", "hash-collision-chains", "random-small-domain", "random-large-domain"} {
		sets[name] = make([]int64, rows)
	}
	for i := 0; i < rows; i++ {
		sets["all-rows-one-key"][i] = 42
		sets["one-row-per-group"][i] = int64(i * 7)
		sets["hash-collision-chains"][i] = int64(i%17) << 47
		sets["random-small-domain"][i] = rng.Int63n(13)
		sets["random-large-domain"][i] = rng.Int63n(1 << 40)
	}
	return sets
}

// TestDeltaMatchesFused is the randomized differential of the
// delta-maintained merge against a re-grouping of the concatenated live
// partials (naiveFold): values, keys and row order, on every slide,
// including while the window is still filling. Min and Max shapes
// cover ascending and descending values, under which every expiry of a
// group's head rescans its chain, extremes tied across partials, and the
// int64 limits; the adversarial key sets run sum, min and max together.
func TestDeltaMatchesFused(t *testing.T) {
	type gen func(rng *rand.Rand, slide int) deltaPartial
	mk := func(naggs int, keyOf func(rng *rand.Rand, slide, i int) int64, rowsOf func(rng *rand.Rand, slide int) int, valOf func(rng *rand.Rand) int64) gen {
		return func(rng *rand.Rand, sl int) deltaPartial {
			n := rowsOf(rng, sl)
			p := deltaPartial{keys: make([]int64, n), vals: make([][]int64, naggs)}
			for a := range p.vals {
				p.vals[a] = make([]int64, n)
			}
			for i := 0; i < n; i++ {
				p.keys[i] = keyOf(rng, sl, i)
				for a := range p.vals {
					p.vals[a][i] = valOf(rng)
				}
			}
			return p
		}
	}
	small := func(rng *rand.Rand) int64 { return rng.Int63n(1000) - 500 }
	fixed := func(n int) func(*rand.Rand, int) int { return func(*rand.Rand, int) int { return n } }
	// counter yields values that only rise (or, negated, only fall) across
	// the whole feed, so the oldest row of a group holds its min (max).
	counter := func(step int64) func(*rand.Rand) int64 {
		var v int64
		return func(rng *rand.Rand) int64 { v += step * (1 + rng.Int63n(3)); return v }
	}
	extremes := []AggKind{AggMin, AggMax, AggSum}
	shapes := []struct {
		name  string
		kinds []AggKind
		gen   gen
	}{
		{"random-domain", sums(2), mk(2, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(40) }, fixed(24), small)},
		// Each key lives for a few slides, vanishes, and comes back later.
		{"vanishing-reappearing", sums(1), mk(1, func(rng *rand.Rand, sl, _ int) int64 { return int64((sl/3)%4)*10 + rng.Int63n(4) }, fixed(6), small)},
		{"all-rows-one-key", sums(2), mk(2, func(*rand.Rand, int, int) int64 { return 42 }, fixed(9), small)},
		// Duplicate keys inside one partial: the chunk-combined basic window.
		{"duplicates-in-partial", sums(1), mk(1, func(rng *rand.Rand, _, i int) int64 { return int64(i%3) + rng.Int63n(2)*100 }, fixed(12), small)},
		{"empty-and-ragged-partials", sums(2), mk(2, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(12) },
			func(rng *rand.Rand, sl int) int {
				if sl%3 == 1 {
					return 0
				}
				return rng.Intn(20)
			}, small)},
		{"wrap-around-sums", sums(2), mk(2, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(5) }, fixed(8),
			func(rng *rand.Rand) int64 { return math.MaxInt64 - rng.Int63n(3) })},
		{"drifting-domain", sums(1), mk(1, func(_ *rand.Rand, sl, i int) int64 { return int64(sl*5 + i) }, fixed(7), small)},
		{"zero-key-no-aggs", nil, mk(0, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(3) }, fixed(4), small)},
		{"min-max-random", extremes, mk(3, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(30) }, fixed(16), small)},
		{"ascending-values", extremes, mk(3, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(6) }, fixed(10), counter(1))},
		{"descending-values", extremes, mk(3, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(6) }, fixed(10), counter(-1))},
		// Values from {0, 1}: the extreme is tied across many partials.
		{"tied-extremes", extremes, mk(3, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(4) }, fixed(8), func(rng *rand.Rand) int64 { return rng.Int63n(2) })},
		{"int64-limits", []AggKind{AggMin, AggMax}, mk(2, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(5) }, fixed(6), func(rng *rand.Rand) int64 {
			return []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1}[rng.Intn(6)]
		})},
		{"empty-partials-max", []AggKind{AggMax}, mk(1, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(5) },
			func(rng *rand.Rand, sl int) int { return (sl % 3) * rng.Intn(6) }, counter(-7))},
	}
	const advRows = 3000
	for name, keys := range adversarialKeys(advRows, rand.New(rand.NewSource(7))) {
		shapes = append(shapes, struct {
			name  string
			kinds []AggKind
			gen   gen
		}{name: "adversarial-" + name, kinds: []AggKind{AggSum, AggMin, AggMax},
			gen: mk(3, func(_ *rand.Rand, sl, i int) int64 { return keys[(sl*97+i)%advRows] }, fixed(97),
				func(rng *rand.Rand) int64 { return rng.Int63n(1_000_000) - 500_000 })})
	}
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 7, 32} {
			t.Run(fmt.Sprintf("%s/N=%d", sh.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(2013 + n)))
				d := NewDelta(vector.Int64, make([]vector.Type, len(sh.kinds)), sh.kinds)
				var live []deltaPartial
				for sl := 0; sl < 5*n+20; sl++ {
					live = slide(t, d, live, n, sh.gen(rng, sl))
					checkDelta(t, fmt.Sprintf("slide %d", sl), d, live)
				}
			})
		}
	}
}

// TestDeltaSequenceWrap runs the differential across the 31-bit sequence
// wrap: links, heads, min/max rescans along the chains and arena positions
// must stay consistent when row numbers restart at zero mid-window. Every
// column is a Timestamp.
func TestDeltaSequenceWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := []vector.Type{vector.Timestamp, vector.Timestamp, vector.Timestamp}
	d := NewDelta(vector.Timestamp, ts, []AggKind{AggSum, AggMax, AggMin})
	d.lo, d.hi = deltaSeqMask-100, deltaSeqMask-100
	var live []deltaPartial
	for sl := 0; sl < 60; sl++ {
		p := deltaPartial{keys: make([]int64, 13), vals: [][]int64{make([]int64, 13), make([]int64, 13), make([]int64, 13)}}
		for i := range p.keys {
			v := rng.Int63n(100)
			p.keys[i], p.vals[0][i], p.vals[1][i], p.vals[2][i] = rng.Int63n(30), v, v, v
		}
		live = slide(t, d, live, 5, p)
		ctx := fmt.Sprintf("slide %d (lo=%d hi=%d)", sl, d.lo, d.hi)
		checkDelta(t, ctx, d, live)
		// The verdict bitmaps are indexed by arena position, which wraps
		// with the sequence numbers.
		checkFiltered(t, ctx, d, []Conjunct{{Col: 1, Cmp: Gt, Val: vector.IntValue(150)}})
		checkFiltered(t, ctx, d, []Conjunct{{Col: 0, Cmp: Le, Val: vector.IntValue(20)}, {Col: 1, Cmp: Ge, Val: vector.IntValue(100)}})
		checkFiltered(t, ctx, d, []Conjunct{{Col: 2, Cmp: Ge, Val: vector.IntValue(90)}, {Col: 3, Cmp: Lt, Val: vector.IntValue(30)}})
	}
	if d.hi > 1000 {
		t.Fatalf("sequence never wrapped (hi=%d)", d.hi)
	}
}

// filteredRef is the reference for EmitFiltered: the full head, then for
// each conjunct a Select over the current columns and a Take of every
// column by it — the select/take chain a HAVING conjunction lowers to.
func filteredRef(d *Delta, conj []Conjunct) []*vector.Vector {
	k, aggs := d.Emit(nil)
	cols := append([]*vector.Vector{k}, aggs...)
	for _, c := range conj {
		sel := Select(cols[c.Col], c.Cmp, c.Val, nil)
		for i := range cols {
			cols[i] = cols[i].Take(sel)
		}
	}
	return cols
}

// checkFiltered compares EmitFiltered with filteredRef, values and order,
// and returns the number of rows kept.
func checkFiltered(t *testing.T, ctx string, d *Delta, conj []Conjunct) int {
	t.Helper()
	want := filteredRef(d, conj)
	k, aggs := d.EmitFiltered(conj, nil)
	got := append([]*vector.Vector{k}, aggs...)
	for c := range want {
		if !vecEqual(got[c], want[c]) {
			t.Fatalf("%s: filter %v column %d differs:\n got %v\nwant %v", ctx, conj, c, got[c].Int64s(), want[c].Int64s())
		}
	}
	return want[0].Len()
}

// TestDeltaFilterMatchesSelect is the randomized differential of the
// filtered emit against the full emit followed by the same select chain,
// values and order, over random expire/add sequences: partial sizes that
// burst and fall back (growth and shrink relayouts), periodic rebuilds
// (Reset and re-add), several filters on one state that come and go, Eq
// and Ne on the key, a float constant on an integer total, a filter on a
// max, a filter that keeps nothing, and a count threshold on a small
// domain so groups flip in and out as their rows expire. The full emit is
// checked against naiveFold on every slide, so the relayouts move the
// max's own values and extremes correctly too.
func TestDeltaFilterMatchesSelect(t *testing.T) {
	filters := [][]Conjunct{
		{{Col: 2, Cmp: Gt, Val: vector.IntValue(2)}},
		{{Col: 0, Cmp: Ne, Val: vector.IntValue(3)}, {Col: 1, Cmp: Lt, Val: vector.FloatValue(250.5)}},
		{{Col: 0, Cmp: Eq, Val: vector.IntValue(5)}},
		{{Col: 1, Cmp: Gt, Val: vector.IntValue(1 << 40)}},
		{{Col: 1, Cmp: Ge, Val: vector.FloatValue(-10.25)}, {Col: 2, Cmp: Le, Val: vector.IntValue(6)}, {Col: 0, Cmp: Lt, Val: vector.IntValue(30)}},
		{{Col: 3, Cmp: Gt, Val: vector.IntValue(400)}},
	}
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + n)))
			d := NewDelta(vector.Int64, []vector.Type{vector.Int64, vector.Int64, vector.Int64}, []AggKind{AggSum, AggSum, AggMax})
			var live []deltaPartial
			grew, shrank, rebuilt := false, false, 0
			prevUsed := map[int]bool{}
			for sl := 0; sl < 400; sl++ {
				rows, domain := 1+rng.Intn(12), int64(8+rng.Intn(24))
				if sl%50 >= 40 {
					rows, domain = 100+rng.Intn(300), 2000 // a burst grows the arena
				}
				p := deltaPartial{keys: make([]int64, rows), vals: [][]int64{make([]int64, rows), make([]int64, rows), make([]int64, rows)}}
				for i := range p.keys {
					p.keys[i], p.vals[0][i], p.vals[1][i] = rng.Int63n(domain), rng.Int63n(1000)-500, 1
					p.vals[2][i] = p.vals[0][i]
				}
				before := d.ArenaCap()
				live = slide(t, d, live, n, p)
				grew = grew || d.ArenaCap() > before
				shrank = shrank || d.ArenaCap() < before
				if sl%23 == 22 {
					d.Reset()
					for _, q := range live {
						d.Add(q.keys, q.vals)
					}
					rebuilt++
				}
				checkDelta(t, fmt.Sprintf("slide %d", sl), d, live)
				used := map[int]bool{0: true}
				for f := 1; f < len(filters); f++ {
					if rng.Intn(3) > 0 {
						used[f] = true
					}
				}
				for f := range filters {
					if used[f] {
						checkFiltered(t, fmt.Sprintf("slide %d", sl), d, filters[f])
					}
				}
				// A filter survives only while emits keep using it: the
				// first refresh after an advance it skipped drops it.
				want := len(used)
				for f := range prevUsed {
					if !used[f] {
						want++
					}
				}
				if got := d.Filters(); got != want {
					t.Fatalf("slide %d: %d filters registered, want %d (used now %v, before %v)", sl, got, want, used, prevUsed)
				}
				prevUsed = used
			}
			if !grew || !shrank || rebuilt == 0 {
				t.Fatalf("sequence missed a case: grew %v shrank %v rebuilds %d", grew, shrank, rebuilt)
			}
		})
	}
}

// TestDeltaFilterVisits pins the work of a steady-state filtered emit: per
// slide the filters read at most the heads the slide touched (no more
// than the distinct keys of the expired and the added partial), one
// verdict word per 64 arena records, and the kept rows — not the live
// rows, which outnumber the kept ones a hundredfold here.
func TestDeltaFilterVisits(t *testing.T) {
	const n, rows, domain = 16, 512, 1 << 14
	rng := rand.New(rand.NewSource(5))
	d := NewDelta(vector.Int64, []vector.Type{vector.Int64, vector.Int64}, sums(2))
	conj := [][]Conjunct{
		{{Col: 2, Cmp: Gt, Val: vector.IntValue(2)}},
		{{Col: 1, Cmp: Gt, Val: vector.IntValue(2200)}},
	}
	var live []deltaPartial
	distinct := func(keys []int64) int {
		seen := map[int64]bool{}
		for _, k := range keys {
			seen[k] = true
		}
		return len(seen)
	}
	for sl := 0; sl < 6*n; sl++ {
		p := deltaPartial{keys: make([]int64, rows), vals: [][]int64{make([]int64, rows), make([]int64, rows)}}
		for i := range p.keys {
			p.keys[i], p.vals[0][i], p.vals[1][i] = rng.Int63n(domain), rng.Int63n(1000), 1
		}
		touched := distinct(p.keys)
		if len(live) == n {
			touched += distinct(live[0].keys)
		}
		capBefore, v0 := d.ArenaCap(), d.Visited()
		live = slide(t, d, live, n, p)
		kept := 0
		for _, c := range conj {
			k, _ := d.EmitFiltered(c, nil)
			kept += k.Len()
		}
		visited := d.Visited() - v0
		if sl < 2*n || d.ArenaCap() != capBefore {
			continue // registration and relayouts evaluate every live head
		}
		if bound := touched + len(conj)*d.ArenaCap()/64 + kept; visited > bound {
			t.Fatalf("slide %d: %d records visited, over touched %d + %d x capacity/64 (%d) + kept %d",
				sl, visited, touched, len(conj), d.ArenaCap()/64, kept)
		}
		if 20*kept > d.Rows() {
			t.Fatalf("slide %d: the filters keep %d of %d live rows; the pin needs a selective filter", sl, kept, d.Rows())
		}
	}
	for _, c := range conj {
		checkFiltered(t, "final", d, c)
	}
}

// TestDeltaBoundedState slides a monotonically drifting key domain for
// 10 000 basic windows: every key dies a few slides after it appears, so
// a table that left dead slots behind (or an arena that never reclaimed
// expired rows) would grow without bound.
func TestDeltaBoundedState(t *testing.T) {
	const n, rows, slides = 8, 64, 10000
	d := NewDelta(vector.Int64, []vector.Type{vector.Int64}, sums(1))
	var live []deltaPartial
	maxTable, maxArena := 0, 0
	for sl := 0; sl < slides; sl++ {
		p := deltaPartial{keys: make([]int64, rows), vals: [][]int64{make([]int64, rows)}}
		for i := range p.keys {
			p.keys[i], p.vals[0][i] = int64(sl*rows/2+i), 1
		}
		live = slide(t, d, live, n, p)
		maxTable = max(maxTable, d.TableCap())
		maxArena = max(maxArena, d.ArenaCap())
	}
	// Live groups <= live rows = n*rows = 512; both structures are powers
	// of two within a small constant of that.
	if d.Rows() != n*rows || d.Groups() > n*rows {
		t.Fatalf("rows=%d groups=%d, want %d rows", d.Rows(), d.Groups(), n*rows)
	}
	if maxTable > 4*n*rows || maxArena > 2*n*rows {
		t.Fatalf("state grew with the drifting domain: table cap %d, arena cap %d over %d live rows", maxTable, maxArena, n*rows)
	}

	// A burst of one huge partial must not pin its capacity forever.
	burst := deltaPartial{keys: make([]int64, 1<<15), vals: [][]int64{make([]int64, 1<<15)}}
	for i := range burst.keys {
		burst.keys[i] = int64(1<<40 + i)
	}
	live = slide(t, d, live, n, burst)
	if d.ArenaCap() < 1<<15 || d.TableCap() < 1<<15 {
		t.Fatalf("burst not held: arena %d table %d", d.ArenaCap(), d.TableCap())
	}
	for sl := 0; sl < 4*n; sl++ {
		p := deltaPartial{keys: []int64{int64(sl)}, vals: [][]int64{{1}}}
		live = slide(t, d, live, n, p)
	}
	if d.ArenaCap() > 4*deltaMinCap || d.TableCap() > 4*deltaMinCap {
		t.Fatalf("capacity not released after the burst expired: arena %d table %d for %d rows", d.ArenaCap(), d.TableCap(), d.Rows())
	}
}

// TestDeltaExpireMismatch pins the divergence contract: a partial that
// is not the oldest one is refused and the state is left intact.
func TestDeltaExpireMismatch(t *testing.T) {
	d := NewDelta(vector.Int64, []vector.Type{vector.Int64}, sums(1))
	if d.Expire(nil, [][]int64{nil}) {
		t.Fatal("Expire on an empty state must fail")
	}
	d.Add([]int64{1, 2}, [][]int64{{10, 20}})
	d.Add([]int64{2}, [][]int64{{5}})
	if d.Expire([]int64{2}, [][]int64{{5}}) {
		t.Fatal("Expire accepted a partial of the wrong size")
	}
	if d.Expire([]int64{1, 2}, nil) {
		t.Fatal("Expire accepted a partial without its aggregate columns")
	}
	k, a := d.Emit(nil)
	if fmt.Sprint(k.Int64s(), a[0].Int64s()) != "[1 2] [10 25]" {
		t.Fatalf("state changed by refused Expire: %v %v", k.Int64s(), a[0].Int64s())
	}
	d.Reset()
	if k, _ := d.Emit(nil); k.Len() != 0 || d.Rows() != 0 || d.Partials() != 0 {
		t.Fatal("Reset left state behind")
	}
}

// TestMergeKernelSteadyStateAllocs pins the steady-state allocation
// behavior of the delta-maintained merge: once warm, advancing the state
// by one slide allocates nothing, for a sum-only state and for one with a
// min and a max whose values rise, so every expiry of a group's head
// rescans the min; only Emit's escaping output columns are fresh.
func TestMergeKernelSteadyStateAllocs(t *testing.T) {
	const n, rows = 8, 512
	for _, kinds := range [][]AggKind{{AggSum, AggSum}, {AggSum, AggMin, AggMax}} {
		rng := rand.New(rand.NewSource(3))
		naggs := len(kinds)
		parts := make([]deltaPartial, 4*n)
		rising := int64(0)
		for i := range parts {
			p := deltaPartial{keys: make([]int64, rows), vals: make([][]int64, naggs)}
			for a := range p.vals {
				p.vals[a] = make([]int64, rows)
			}
			for j := range p.keys {
				rising += rng.Int63n(3)
				p.keys[j] = rng.Int63n(3000)
				for a := range p.vals {
					p.vals[a][j] = rising
				}
			}
			parts[i] = p
		}
		d := NewDelta(vector.Int64, make([]vector.Type, naggs), kinds)
		at := 0
		step := func() {
			if at >= n {
				old := parts[(at-n)%len(parts)]
				d.Expire(old.keys, old.vals)
			}
			p := parts[at%len(parts)]
			d.Add(p.keys, p.vals)
			at++
		}
		for i := 0; i < 3*n; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("%v: steady-state expire+add: %v allocs per slide, want 0", kinds, avg)
		}
		// The output vectors' payloads + headers + the column slices; the
		// point is that it does not scale with rows or groups.
		if avg := testing.AllocsPerRun(10, func() { d.Emit(nil) }); avg > float64(4+3*naggs) {
			t.Errorf("%v: Emit: %v allocs, want a constant handful (the output columns)", kinds, avg)
		}
		// Into a warm buffer the payloads are reused: only the vector
		// headers and the aggregate slice are new, and the head is the same.
		var buf EmitBuf
		wantK, wantA := d.Emit(nil)
		gotK, gotA := d.Emit(&buf)
		if !vecEqual(gotK, wantK) {
			t.Fatalf("%v: Emit into a buffer differs from a fresh Emit", kinds)
		}
		for a := range wantA {
			if !vecEqual(gotA[a], wantA[a]) {
				t.Fatalf("%v: Emit into a buffer differs from a fresh Emit", kinds)
			}
		}
		if avg := testing.AllocsPerRun(10, func() { d.Emit(&buf) }); avg > float64(2+naggs) {
			t.Errorf("%v: Emit into a warm buffer: %v allocs, want at most %d (headers only)", kinds, avg, 2+naggs)
		}
	}
}
