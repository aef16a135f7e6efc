package algebra

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"datacell/internal/vector"
)

func TestBuildProbeBasic(t *testing.T) {
	build := vector.FromInt64([]int64{10, 20, 10, 30})
	tbl := BuildInt(build, nil)
	if tbl.Len() != 4 {
		t.Fatalf("len: %d", tbl.Len())
	}
	probe := vector.FromInt64([]int64{10, 99, 30})
	j := tbl.Probe(probe, nil)
	// Probe row 0 matches build rows 0 and 2 (ascending build order),
	// probe row 2 matches build row 3.
	if !selEqual(j.Left, vector.Sel{0, 0, 2}) || !selEqual(j.Right, vector.Sel{0, 2, 3}) {
		t.Errorf("probe: L=%v R=%v", j.Left, j.Right)
	}
}

func TestBuildProbeWithSelections(t *testing.T) {
	build := vector.FromInt64([]int64{1, 2, 3, 2})
	tbl := BuildInt(build, vector.Sel{1, 2})
	probe := vector.FromInt64([]int64{2, 3, 2})
	j := tbl.Probe(probe, vector.Sel{0, 1})
	// Probe positions are original row ids; build rows likewise.
	if !selEqual(j.Left, vector.Sel{0, 1}) || !selEqual(j.Right, vector.Sel{1, 2}) {
		t.Errorf("probe with sels: L=%v R=%v", j.Left, j.Right)
	}
}

func TestBuildProbeEmpty(t *testing.T) {
	tbl := BuildInt(vector.FromInt64(nil), nil)
	j := tbl.Probe(vector.FromInt64([]int64{1, 2}), nil)
	if j.Len() != 0 || j.Left == nil || j.Right == nil {
		t.Errorf("empty build: %+v", j)
	}
	tbl = BuildInt(vector.FromInt64([]int64{5}), nil)
	j = tbl.Probe(vector.FromInt64(nil), nil)
	if j.Len() != 0 {
		t.Errorf("empty probe: %+v", j)
	}
}

func TestBuildProbeCollisionHeavy(t *testing.T) {
	// Keys chosen to collide heavily modulo small table sizes.
	n := 1000
	build := make([]int64, n)
	for i := range build {
		build[i] = int64(i * 1024)
	}
	tbl := BuildInt(vector.FromInt64(build), nil)
	probe := vector.FromInt64(build)
	j := tbl.Probe(probe, nil)
	if j.Len() != n {
		t.Fatalf("distinct self-join should yield %d pairs, got %d", n, j.Len())
	}
	for i := range j.Left {
		if j.Left[i] != j.Right[i] {
			t.Fatal("distinct self-join must be the identity")
		}
	}
}

// Property: BuildInt+Probe agrees with the nested-loop join, including
// multiplicities and negative keys.
func TestBuildProbeMatchesNestedLoopProperty(t *testing.T) {
	f := func(buildRaw, probeRaw []int8) bool {
		build := make([]int64, len(buildRaw))
		for i, x := range buildRaw {
			build[i] = int64(x % 8)
		}
		probe := make([]int64, len(probeRaw))
		for i, x := range probeRaw {
			probe[i] = int64(x % 8)
		}
		j := BuildInt(vector.FromInt64(build), nil).Probe(vector.FromInt64(probe), nil)
		want := 0
		for _, p := range probe {
			for _, b := range build {
				if p == b {
					want++
				}
			}
		}
		if j.Len() != want {
			return false
		}
		for i := range j.Left {
			if probe[j.Left[i]] != build[j.Right[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashJoinAgreesWithBuildProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(500)
		l := make([]int64, n)
		r := make([]int64, n)
		for i := 0; i < n; i++ {
			l[i] = rng.Int63n(50)
			r[i] = rng.Int63n(50)
		}
		lv, rv := vector.FromInt64(l), vector.FromInt64(r)
		a := HashJoin(lv, nil, rv, nil)
		b := BuildInt(rv, nil).Probe(lv, nil)
		if !selEqual(a.Left, b.Left) || !selEqual(a.Right, b.Right) {
			t.Fatalf("trial %d: HashJoin and Build/Probe disagree", trial)
		}
	}
}

// naiveGroup is the reference for Group's int64 path: GroupMap, the
// seed's map grouping, which shares no table code with Group.
func naiveGroup(vals []int64, sel vector.Sel) *Groups {
	return GroupMap([]*vector.Vector{vector.FromInt64(vals)}, sel)
}

// structuredKeys returns n distinct keys in arithmetic progressions,
// most agreeing in their low bits — the shapes a multiply-and-take-
// middle-bits hash piles onto a few slots.
func structuredKeys(n int) map[string][]int64 {
	shapes := map[string][]int64{}
	for name, f := range map[string]func(i int64) int64{
		"i*1000": func(i int64) int64 { return i * 1000 },
		"i<<4":   func(i int64) int64 { return i << 4 },
		"i<<20":  func(i int64) int64 { return i << 20 },
		"i<<32":  func(i int64) int64 { return i << 32 },
		"i<<48":  func(i int64) int64 { return i << 48 },
		"-i<<32": func(i int64) int64 { return -i << 32 },
		"i*2^16": func(i int64) int64 { return i * 65536 },
	} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = f(int64(i))
		}
		shapes[name] = vals
	}
	return shapes
}

// skewedKeys draws n keys from [0, domain) with a heavy skew toward low
// ids (roughly zipf-shaped).
func skewedKeys(rng *rand.Rand, n int, domain int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		k := rng.Int63n(domain)
		if rng.Intn(3) > 0 { // 2/3 of rows collapse onto a small hot set
			k = rng.Int63n(1 + domain/16)
		}
		out[i] = k
	}
	return out
}

// TestGroupWithMatchesGroup checks grouping with the reusable int64
// GroupTable against the naive map reference on random (skewed) keys and
// random selections, and reuses one table across all trials to exercise
// Reset by epoch bump.
func TestGroupWithMatchesGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := NewGroupTable()
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		vals := skewedKeys(rng, n, 1+rng.Int63n(300))
		var sel vector.Sel
		if trial%2 == 1 {
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		tbl.Reset(n)
		got := &Groups{}
		groupInt64(got, tbl, vals, sel)
		assertGroupsEqual(t, trial, got, naiveGroup(vals, sel))
	}
}

// TestGroupWithGrowsPastHint pins the GroupTable's load-factor growth: a
// Reset hint far below the distinct-key count must cost a rehash, not a
// hang, and the assigned ids must survive growth unchanged.
func TestGroupWithGrowsPastHint(t *testing.T) {
	n := 5000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 7)
	}
	tbl := NewGroupTable()
	tbl.Reset(4) // 16 slots for 5000 distinct keys
	got := &Groups{}
	groupInt64(got, tbl, vals, nil)
	assertGroupsEqual(t, 0, got, naiveGroup(vals, nil))
}

// TestGroupMatchesNaiveMap checks Group itself — the grouping every
// differential arm shares, Baseline included — against the naive map
// reference: random keys drawn around the int64 extremes and zero, with
// and without a selection, an empty input, and a pooled table that a
// large call grew being reused by small ones and vice versa.
func TestGroupMatchesNaiveMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(600)
		if trial%25 == 0 {
			n = 20000 + rng.Intn(5000) // grow a pooled table well past the usual size
		}
		domain := 1 + rng.Int63n(int64(n)+1)
		vals := make([]int64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = edges[rng.Intn(len(edges))]
			case 1:
				vals[i] = -rng.Int63n(domain)
			default:
				vals[i] = rng.Int63n(domain)
			}
		}
		var sel vector.Sel
		if trial%2 == 1 {
			sel = vector.Sel{}
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		typ := vector.Int64
		if trial%3 == 0 {
			typ = vector.Timestamp
		}
		key := vector.FromInt64(vals)
		if typ == vector.Timestamp {
			key = vector.FromTimestamp(vals)
		}
		assertGroupsEqual(t, trial, Group([]*vector.Vector{key}, sel), naiveGroup(vals, sel))
	}
	for name, vals := range structuredKeys(4096) {
		vals = append(vals, vals[:1000]...) // repeats find their groups
		assertGroupsEqual(t, 0, Group([]*vector.Vector{vector.FromInt64(vals)}, nil), naiveGroup(vals, nil))
		if t.Failed() {
			t.Fatalf("keys %s", name)
		}
	}
	for _, sel := range []vector.Sel{nil, {}} {
		g := Group([]*vector.Vector{vector.FromInt64(nil)}, sel)
		if g.K != 0 || len(g.IDs) != 0 || len(g.Repr) != 0 {
			t.Fatalf("empty input (sel %v): K=%d ids=%v repr=%v", sel, g.K, g.IDs, g.Repr)
		}
	}
}

// TestGroupTableStructuredKeys bounds linear probing on keys that share
// their low bits: the slot must come from bits every key bit reaches, or
// n such keys land on one slot and grouping a basic window costs ~n²/2
// probes. At 50% load a random hash averages half a probe past the home
// slot per key, and multiplicative hashing of a progression up to about
// two; the bound allows 4.
func TestGroupTableStructuredKeys(t *testing.T) {
	const n = 32768
	tbl := NewGroupTable()
	for name, vals := range structuredKeys(n) {
		tbl.Reset(n)
		groupInt64(&Groups{}, tbl, vals, nil)
		displaced := 0
		for j, s := range tbl.slots {
			if s.epoch == tbl.epoch {
				displaced += int((uint64(j) - HashInt64(s.key, tbl.mask)) & tbl.mask)
			}
		}
		t.Logf("keys %s: %.2f probes past home per key", name, float64(displaced)/n)
		if displaced > 4*n {
			t.Errorf("keys %s: %d probes past the home slot for %d keys", name, displaced, n)
		}
	}
}

// TestGroupSteadyStateBytes pins what the pooled table buys: once warm,
// grouping one basic window of merge_wide's shape (2048 rows over ~2000
// keys) allocates at most half the bytes of the map reference — only the
// returned ids and representatives.
func TestGroupSteadyStateBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 2048)
	for i := range vals {
		vals[i] = rng.Int63n(65536)
	}
	key := []*vector.Vector{vector.FromInt64(vals)}
	perCall := func(fn func()) float64 {
		fn() // warm the pool
		var a, b runtime.MemStats
		const calls = 50
		runtime.ReadMemStats(&a)
		for i := 0; i < calls; i++ {
			fn()
		}
		runtime.ReadMemStats(&b)
		return float64(b.TotalAlloc-a.TotalAlloc) / calls
	}
	got := perCall(func() { Group(key, nil) })
	ref := perCall(func() { naiveGroup(vals, nil) })
	t.Logf("bytes per call: Group %.0f, map reference %.0f", got, ref)
	if 2*got > ref {
		t.Fatalf("Group allocates %.0f bytes per call, more than half the map reference's %.0f", got, ref)
	}
}

func assertGroupsEqual(t *testing.T, trial int, got, want *Groups) {
	t.Helper()
	if got.K != want.K || len(got.IDs) != len(want.IDs) {
		t.Fatalf("trial %d: K=%d/%d rows=%d/%d", trial, got.K, want.K, len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("trial %d: id[%d]=%d want %d", trial, i, got.IDs[i], want.IDs[i])
		}
	}
	for i := range want.Repr {
		if got.Repr[i] != want.Repr[i] {
			t.Fatalf("trial %d: repr[%d]=%d want %d", trial, i, got.Repr[i], want.Repr[i])
		}
	}
}

func BenchmarkBuildInt(b *testing.B) {
	vals := make([]int64, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	v := vector.FromInt64(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildInt(v, nil)
	}
}

func BenchmarkProbe(b *testing.B) {
	vals := make([]int64, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63n(100000)
	}
	v := vector.FromInt64(vals)
	tbl := BuildInt(v, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Probe(v, nil)
	}
}
