package algebra

import (
	"math/rand"
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

// groupWithTable groups vals (restricted to sel when non-nil) through the
// reusable int64 GroupTable, in the shape Group returns: dense ids in
// first-appearance order and one representative row position per group.
func groupWithTable(tbl *GroupTable, vals []int64, sel vector.Sel) *Groups {
	g := &Groups{}
	visit := func(pos int32) {
		id, found := tbl.insertInt64(vals[pos], int32(g.K))
		if !found {
			g.K++
			g.Repr = append(g.Repr, pos)
		}
		g.IDs = append(g.IDs, id)
	}
	if sel != nil {
		for _, pos := range sel {
			visit(pos)
		}
		return g
	}
	for i := range vals {
		visit(int32(i))
	}
	return g
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
// GroupTable against the map-based Group on random (skewed) keys and
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
		want := Group([]*vector.Vector{vector.FromInt64(vals)}, sel)
		tbl.Reset(n)
		assertGroupsEqual(t, trial, groupWithTable(tbl, vals, sel), want)
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
	want := Group([]*vector.Vector{vector.FromInt64(vals)}, nil)
	assertGroupsEqual(t, 0, groupWithTable(tbl, vals, nil), want)
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
