package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datacell/internal/vector"
)

// deltaPartial is one basic window's partial as the merge stage sees it.
type deltaPartial struct {
	keys []int64
	vals [][]int64
}

// fusedOver is the reference: the fused kernel's serial grouping over the
// concatenated live partials, read part by part exactly as core does.
func fusedOver(f *Fused, live []deltaPartial, naggs int) (*vector.Vector, []*vector.Vector) {
	aggs := make([]FusedAgg, naggs)
	for a := range aggs {
		aggs[a] = FusedAgg{Kind: AggSum, Typ: vector.Int64}
	}
	rows := 0
	for _, p := range live {
		rows += len(p.keys)
	}
	f.Begin(1, 1, rows, vector.Int64, aggs)
	for _, p := range live {
		cols := make([]AggCol, naggs)
		for a := range cols {
			cols[a] = AggCol{I: p.vals[a]}
			if p.vals[a] == nil {
				cols[a].I = []int64{}
			}
		}
		f.GroupRangeDirect(p.keys, cols, 0, len(p.keys))
	}
	return f.Finish()
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

func checkDelta(t *testing.T, ctx string, d *Delta, f *Fused, live []deltaPartial, naggs int) {
	t.Helper()
	wantK, wantA := fusedOver(f, live, naggs)
	gotK, gotA := d.Emit()
	if !vecEqual(gotK, wantK) {
		t.Fatalf("%s: keys (or their order) differ:\n got %v\nwant %v", ctx, gotK.Int64s(), wantK.Int64s())
	}
	for a := range wantA {
		if !vecEqual(gotA[a], wantA[a]) {
			t.Fatalf("%s: agg %d differs:\n got %v\nwant %v", ctx, a, gotA[a].Int64s(), wantA[a].Int64s())
		}
	}
	rows := 0
	for _, p := range live {
		rows += len(p.keys)
	}
	if d.Groups() != wantK.Len() || d.Rows() != rows || d.Partials() != len(live) {
		t.Fatalf("%s: accounting groups=%d rows=%d partials=%d, want %d %d %d",
			ctx, d.Groups(), d.Rows(), d.Partials(), wantK.Len(), rows, len(live))
	}
}

// TestDeltaMatchesFused is the randomized differential of the
// delta-maintained merge against the fused kernel over the concatenated
// live partials: values, keys and row order, on every slide, including
// while the window is still filling.
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
	shapes := []struct {
		name  string
		naggs int
		gen   gen
	}{
		{"random-domain", 2, mk(2, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(40) }, fixed(24), small)},
		// Each key lives for a few slides, vanishes, and comes back later.
		{"vanishing-reappearing", 1, mk(1, func(rng *rand.Rand, sl, _ int) int64 { return int64((sl/3)%4)*10 + rng.Int63n(4) }, fixed(6), small)},
		{"all-rows-one-key", 2, mk(2, func(*rand.Rand, int, int) int64 { return 42 }, fixed(9), small)},
		// Duplicate keys inside one partial: the chunk-combined basic window.
		{"duplicates-in-partial", 1, mk(1, func(rng *rand.Rand, _, i int) int64 { return int64(i%3) + rng.Int63n(2)*100 }, fixed(12), small)},
		{"empty-and-ragged-partials", 2, mk(2, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(12) },
			func(rng *rand.Rand, sl int) int {
				if sl%3 == 1 {
					return 0
				}
				return rng.Intn(20)
			}, small)},
		{"wrap-around-sums", 2, mk(2, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(5) }, fixed(8),
			func(rng *rand.Rand) int64 { return math.MaxInt64 - rng.Int63n(3) })},
		{"drifting-domain", 1, mk(1, func(_ *rand.Rand, sl, i int) int64 { return int64(sl*5 + i) }, fixed(7), small)},
		{"zero-key-no-aggs", 0, mk(0, func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(3) }, fixed(4), small)},
	}
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 7, 32} {
			t.Run(fmt.Sprintf("%s/N=%d", sh.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(2013 + n)))
				typs := make([]vector.Type, sh.naggs)
				d := NewDelta(vector.Int64, typs)
				f := NewFused()
				var live []deltaPartial
				for sl := 0; sl < 5*n+20; sl++ {
					live = slide(t, d, live, n, sh.gen(rng, sl))
					checkDelta(t, fmt.Sprintf("slide %d", sl), d, f, live, sh.naggs)
				}
			})
		}
	}
}

// TestDeltaSequenceWrap runs the differential across the 31-bit sequence
// wrap: links, heads and arena positions must stay consistent when row
// numbers restart at zero mid-window.
func TestDeltaSequenceWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDelta(vector.Timestamp, []vector.Type{vector.Timestamp})
	d.lo, d.hi = deltaSeqMask-100, deltaSeqMask-100
	f := NewFused()
	var live []deltaPartial
	for sl := 0; sl < 60; sl++ {
		p := deltaPartial{keys: make([]int64, 13), vals: [][]int64{make([]int64, 13)}}
		for i := range p.keys {
			p.keys[i], p.vals[0][i] = rng.Int63n(30), rng.Int63n(100)
		}
		live = slide(t, d, live, 5, p)
		wantK, wantA := fusedOver(f, live, 1)
		gotK, gotA := d.Emit()
		if gotK.Type() != vector.Timestamp || gotA[0].Type() != vector.Timestamp {
			t.Fatalf("slide %d: output types %v/%v, want timestamps", sl, gotK.Type(), gotA[0].Type())
		}
		if fmt.Sprint(gotK.Int64s()) != fmt.Sprint(wantK.Int64s()) || fmt.Sprint(gotA[0].Int64s()) != fmt.Sprint(wantA[0].Int64s()) {
			t.Fatalf("slide %d (lo=%d hi=%d): diverged across the sequence wrap", sl, d.lo, d.hi)
		}
	}
	if d.hi > 1000 {
		t.Fatalf("sequence never wrapped (hi=%d)", d.hi)
	}
}

// TestDeltaBoundedState slides a monotonically drifting key domain for
// 10 000 basic windows: every key dies a few slides after it appears, so
// a table that left dead slots behind (or an arena that never reclaimed
// expired rows) would grow without bound.
func TestDeltaBoundedState(t *testing.T) {
	const n, rows, slides = 8, 64, 10000
	d := NewDelta(vector.Int64, []vector.Type{vector.Int64})
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
	d := NewDelta(vector.Int64, []vector.Type{vector.Int64})
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
	k, a := d.Emit()
	if fmt.Sprint(k.Int64s(), a[0].Int64s()) != "[1 2] [10 25]" {
		t.Fatalf("state changed by refused Expire: %v %v", k.Int64s(), a[0].Int64s())
	}
	d.Reset()
	if k, _ := d.Emit(); k.Len() != 0 || d.Rows() != 0 || d.Partials() != 0 {
		t.Fatal("Reset left state behind")
	}
}

// deltaSteadyStateAllocs is the delta kernel's arm of
// TestMergeKernelSteadyStateAllocs: once warm, advancing the state by one
// slide allocates nothing; only Emit's escaping output columns are fresh.
func deltaSteadyStateAllocs(t *testing.T) {
	const n, rows = 8, 512
	rng := rand.New(rand.NewSource(3))
	parts := make([]deltaPartial, 4*n)
	for i := range parts {
		p := deltaPartial{keys: make([]int64, rows), vals: [][]int64{make([]int64, rows), make([]int64, rows)}}
		for j := range p.keys {
			p.keys[j], p.vals[0][j], p.vals[1][j] = rng.Int63n(3000), rng.Int63n(1000), 1
		}
		parts[i] = p
	}
	d := NewDelta(vector.Int64, []vector.Type{vector.Int64, vector.Int64})
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
		t.Errorf("steady-state expire+add: %v allocs per slide, want 0", avg)
	}
	// 2 output vectors' payloads + headers + the column slices; the point
	// is that it does not scale with rows or groups.
	if avg := testing.AllocsPerRun(10, func() { d.Emit() }); avg > 10 {
		t.Errorf("Emit: %v allocs, want a constant handful (the output columns)", avg)
	}
}

// BenchmarkDeltaVsFused measures one slide of merge_wide's shape (32
// basic windows of 2048 rows over a 65536-key domain, sum + count) through
// both kernels.
func BenchmarkDeltaVsFused(b *testing.B) {
	const n, rows, domain = 32, 2048, 65536
	rng := rand.New(rand.NewSource(1))
	parts := make([]deltaPartial, 4*n)
	for i := range parts {
		seen := map[int64]int{}
		var p deltaPartial
		p.vals = make([][]int64, 2)
		for j := 0; j < rows; j++ {
			k := rng.Int63n(domain)
			at, ok := seen[k]
			if !ok {
				at = len(p.keys)
				seen[k] = at
				p.keys = append(p.keys, k)
				p.vals[0] = append(p.vals[0], 0)
				p.vals[1] = append(p.vals[1], 0)
			}
			p.vals[0][at] += rng.Int63n(1000)
			p.vals[1][at]++
		}
		parts[i] = p
	}
	b.Run("fused", func(b *testing.B) {
		f := NewFused()
		for i := 0; i < b.N; i++ {
			live := make([]deltaPartial, n)
			for j := range live {
				live[j] = parts[(i+j)%len(parts)]
			}
			fusedOver(f, live, 2)
		}
	})
	b.Run("delta", func(b *testing.B) {
		d := NewDelta(vector.Int64, []vector.Type{vector.Int64, vector.Int64})
		for j := 0; j < n; j++ {
			d.Add(parts[j].keys, parts[j].vals)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			old := parts[i%len(parts)]
			d.Expire(old.keys, old.vals)
			p := parts[(i+n)%len(parts)]
			d.Add(p.keys, p.vals)
			d.Emit()
		}
	})
}
