package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"datacell/internal/vector"
)

// runFused drives one complete fused merge over a single contiguous part:
// scatter across `workers` ascending ranges, group the p shards, reduce
// the stitch tree, and return the output columns. p == 1 uses direct mode
// (the serial reference).
func runFused(f *Fused, p, workers int, keys []int64, aggCols []AggCol, aggs []FusedAgg) (*vector.Vector, []*vector.Vector) {
	rows := len(keys)
	f.Begin(p, workers, rows, vector.Int64, aggs)
	if p == 1 {
		f.GroupRangeDirect(keys, aggCols, 0, rows)
		return f.Finish()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*rows/workers, (w+1)*rows/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.ScatterRange(w, 0, keys, aggCols, lo, hi)
		}()
	}
	wg.Wait()
	for s := 0; s < p; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.GroupShard(s)
		}()
	}
	wg.Wait()
	// Pairs of one level run concurrently, exactly like the runtime's
	// worker pool — under -race this pins the nodes/spare disjointness.
	for pairs := f.BeginStitch(); pairs > 0; pairs = f.CommitLevel() {
		for i := 0; i < pairs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.StitchPair(i)
			}()
		}
		wg.Wait()
	}
	return f.Finish()
}

// vecEqual is an exact (bit-level for floats) element-wise comparison;
// Vector.String() truncates, so it cannot stand in for equality here.
func vecEqual(a, b *vector.Vector) bool {
	if a.Type() != b.Type() || a.Len() != b.Len() {
		return false
	}
	switch a.Type() {
	case vector.Int64, vector.Timestamp:
		x, y := a.Int64s(), b.Int64s()
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	case vector.Float64:
		x, y := a.Float64s(), b.Float64s()
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
	default:
		for i := 0; i < a.Len(); i++ {
			if a.Get(i) != b.Get(i) {
				return false
			}
		}
	}
	return true
}

// adversarialKeySets builds the skew shapes the scatter/stitch path must
// survive bit-identically: every row in one shard, one row per shard
// (all-distinct keys), keys engineered to land in a single shard despite
// being distinct, hashtable collision chains, and plain random domains.
func adversarialKeySets(rows, p int, rng *rand.Rand) map[string][]int64 {
	sets := map[string][]int64{}

	allOne := make([]int64, rows)
	for i := range allOne {
		allOne[i] = 42
	}
	sets["all-rows-one-key"] = allOne

	distinct := make([]int64, rows)
	for i := range distinct {
		distinct[i] = int64(i * 7)
	}
	sets["one-row-per-group"] = distinct

	// Distinct keys that all hash into shard 0 of a p-way split: the worst
	// scatter skew (p-1 empty shards, one shard holding every row).
	oneShard := make([]int64, 0, rows)
	for k := int64(0); len(oneShard) < rows; k++ {
		if shardOfInt64(k, p) == 0 {
			oneShard = append(oneShard, k)
		}
	}
	sets["all-rows-one-shard"] = oneShard

	// Keys stepping by a large power of two: after the hash multiply these
	// walk aliased bucket sequences, forcing long probe chains.
	collide := make([]int64, rows)
	for i := range collide {
		collide[i] = int64(i%17) << 47
	}
	sets["hash-collision-chains"] = collide

	small := make([]int64, rows)
	big := make([]int64, rows)
	for i := range small {
		small[i] = rng.Int63n(13)
		big[i] = rng.Int63n(1 << 40)
	}
	sets["random-small-domain"] = small
	sets["random-large-domain"] = big
	return sets
}

// TestFusedDifferentialAdversarialSkew is the randomized differential
// harness for the parallel merge kernel: for every adversarial key skew,
// shard count and worker count (1/2/4/7), scatter + shard grouping + tree
// stitch must produce output bit-identical to the serial direct pass —
// same group order (first occurrence), same integer sums, and the same
// float accumulation order (checked with magnitude-skewed floats where a
// reordered sum changes the result).
func TestFusedDifferentialAdversarialSkew(t *testing.T) {
	const rows = 3000
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{2, 4, 7} {
		for name, keys := range adversarialKeySets(rows, p, rng) {
			ints := make([]int64, rows)
			floats := make([]float64, rows)
			for i := range ints {
				ints[i] = rng.Int63n(1_000_000) - 500_000
				// Wildly mixed magnitudes: float addition is not
				// associative, so any accumulation reorder shows up.
				floats[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
			}
			aggs := []FusedAgg{
				{Kind: AggSum, Typ: vector.Int64},
				{Kind: AggSum, Typ: vector.Float64},
				{Kind: AggMin, Typ: vector.Int64},
				{Kind: AggMax, Typ: vector.Int64},
			}
			aggCols := []AggCol{{I: ints}, {F: floats}, {I: ints}, {I: ints}}

			ref := NewFused()
			wantKeys, wantAccs := runFused(ref, 1, 1, keys, aggCols, aggs)
			for _, workers := range []int{1, 2, 4, 7} {
				f := NewFused()
				gotKeys, gotAccs := runFused(f, p, workers, keys, aggCols, aggs)
				label := fmt.Sprintf("%s p=%d workers=%d", name, p, workers)
				if !vecEqual(gotKeys, wantKeys) {
					t.Fatalf("%s: key column diverges from serial", label)
				}
				for a := range wantAccs {
					if !vecEqual(gotAccs[a], wantAccs[a]) {
						t.Fatalf("%s: aggregate %d diverges from serial", label, a)
					}
				}
			}
		}
	}
}

// TestPartitionerScatterDifferential checks the index-based parallel
// scatter against the serial Split: per-shard selections (and the generic
// row-key cache) must be identical at every worker count, for both the
// int64 fast path and the generic multi-column path.
func TestPartitionerScatterDifferential(t *testing.T) {
	const rows = 2000
	rng := rand.New(rand.NewSource(11))
	intKeys := make([]int64, rows)
	strKeys := make([]string, rows)
	for i := range intKeys {
		intKeys[i] = rng.Int63n(50)
		strKeys[i] = fmt.Sprintf("k%d", rng.Intn(37))
	}
	intCol := []*vector.Vector{vector.FromInt64(intKeys)}
	genCols := []*vector.Vector{vector.FromInt64(intKeys), vector.FromStr(strKeys)}

	for _, p := range []int{2, 4, 7} {
		for _, generic := range []bool{false, true} {
			keys := intCol
			if generic {
				keys = genCols
			}
			want := NewPartitioner()
			want.Reset(p)
			want.Split(keys)
			wantRowKeys := append([]string(nil), want.RowKeys()...)

			for _, workers := range []int{1, 2, 4, 7} {
				got := NewPartitioner()
				got.Reset(p)
				got.BeginScatter(workers, rows, generic)
				w := got.scatterW // BeginScatter may clamp
				for i := 0; i < w; i++ {
					lo, hi := i*rows/w, (i+1)*rows/w
					if generic {
						got.ScatterGenericRange(i, keys, lo, hi)
					} else {
						got.ScatterIntRange(i, keys[0].Int64s(), lo, hi)
					}
				}
				for s := 0; s < p; s++ {
					got.FinishShard(s)
				}
				for s := 0; s < p; s++ {
					a, b := want.Shard(s), got.Shard(s)
					if len(a) != len(b) {
						t.Fatalf("p=%d generic=%v workers=%d: shard %d has %d rows, want %d",
							p, generic, workers, s, len(b), len(a))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("p=%d generic=%v workers=%d: shard %d row %d = %d, want %d",
								p, generic, workers, s, i, b[i], a[i])
						}
					}
				}
				gotRowKeys := got.RowKeys()
				if len(gotRowKeys) != len(wantRowKeys) {
					t.Fatalf("p=%d generic=%v workers=%d: row-key cache length %d, want %d",
						p, generic, workers, len(gotRowKeys), len(wantRowKeys))
				}
				for i := range wantRowKeys {
					if gotRowKeys[i] != wantRowKeys[i] {
						t.Fatalf("p=%d generic=%v workers=%d: row key %d diverges", p, generic, workers, i)
					}
				}
				got.ReleaseKeys()
			}
			want.ReleaseKeys()
		}
	}
}

// TestMergeKernelSteadyStateAllocs pins the steady-state allocation
// behavior of the merge kernels after warm-up: the scatter cells, shard
// hashtables and stitch-tree node pools persist across firings, so a full
// parallel firing allocates nothing before Finish (whose output columns
// escape into result tables and are deliberately fresh). The kernels are
// driven serially — goroutine fan-out is the runtime's job and allocates
// by nature. The delta-maintained kernel keeps its state across slides
// instead: its expire+add allocates nothing, only Emit's columns are fresh.
func TestMergeKernelSteadyStateAllocs(t *testing.T) {
	const rows = 4096
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, rows)
	vals := make([]int64, rows)
	for i := range keys {
		keys[i] = rng.Int63n(97)
		vals[i] = rng.Int63n(1000)
	}
	aggs := []FusedAgg{{Kind: AggSum, Typ: vector.Int64}}
	aggCols := []AggCol{{I: vals}}

	for _, cfg := range []struct{ p, workers int }{{1, 1}, {4, 4}, {7, 3}} {
		f := NewFused()
		fire := func() {
			f.Begin(cfg.p, cfg.workers, rows, vector.Int64, aggs)
			if cfg.p == 1 {
				f.GroupRangeDirect(keys, aggCols, 0, rows)
				return
			}
			for w := 0; w < cfg.workers; w++ {
				lo, hi := w*rows/cfg.workers, (w+1)*rows/cfg.workers
				f.ScatterRange(w, 0, keys, aggCols, lo, hi)
			}
			for s := 0; s < cfg.p; s++ {
				f.GroupShard(s)
			}
			for pairs := f.BeginStitch(); pairs > 0; pairs = f.CommitLevel() {
				for i := 0; i < pairs; i++ {
					f.StitchPair(i)
				}
			}
		}
		// Warm the persistent buffers (and Finish once so lastK sizes the
		// direct-mode hint); then the pre-Finish pipeline must be 0 allocs.
		fire()
		f.Finish()
		if cfg.p == 1 {
			// Direct mode appends into the fresh output columns themselves,
			// so only the non-output machinery (the probe table) is
			// steady-state; skip the 0-alloc assertion on the build phase.
			continue
		}
		if avg := testing.AllocsPerRun(10, fire); avg != 0 {
			t.Errorf("p=%d workers=%d: %v allocs per parallel firing before Finish, want 0", cfg.p, cfg.workers, avg)
		}
	}

	// The index-based scatter: per-worker sub-selections persist too.
	pt := NewPartitioner()
	scatter := func() {
		pt.Reset(4)
		pt.BeginScatter(4, rows, false)
		for w := 0; w < 4; w++ {
			pt.ScatterIntRange(w, keys, w*rows/4, (w+1)*rows/4)
		}
		for s := 0; s < 4; s++ {
			pt.FinishShard(s)
		}
	}
	scatter()
	if avg := testing.AllocsPerRun(10, scatter); avg != 0 {
		t.Errorf("partitioner scatter: %v allocs per firing, want 0", avg)
	}

	deltaSteadyStateAllocs(t)
}
