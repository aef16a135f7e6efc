package bench

import (
	"runtime"
	"testing"

	"datacell/internal/core"
)

// TestMergeSweepChecksums runs a small merge sweep end to end: every
// (shape, domain, workers) cell must produce the same number of windows
// and an identical checksum within its shape and domain, every cell must
// be tagged with the kernel that ran — delta for the invertible shape,
// fused for the one with max, instruction for the baselines — the delta
// cells must never shard, and the large-domain fused cells must actually
// record partition-stage time (the sharded path engaged), so the sweep
// keeps measuring scatter/stitch.
func TestMergeSweepChecksums(t *testing.T) {
	// Raise GOMAXPROCS so the sharded path engages even on 1-CPU hosts
	// (PartitionMS counts only genuinely sharded re-groups).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	points, err := MeasureMergeSweep(8192, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	type cellKey struct {
		aggs string
		keys int
	}
	perDomain := map[cellKey][]MergePoint{}
	for _, p := range points {
		perDomain[cellKey{p.Aggs, p.Keys}] = append(perDomain[cellKey{p.Aggs, p.Keys}], p)
		want := core.MergeInstruction
		switch {
		case p.Baseline:
		case p.Aggs == "sum,count":
			want = core.MergeDelta
		default:
			want = core.MergeFused
		}
		if p.Kernel != want {
			t.Errorf("%s keys=%d workers=%d baseline=%v ran kernel %q, want %q", p.Aggs, p.Keys, p.Workers, p.Baseline, p.Kernel, want)
		}
		if p.Kernel == core.MergeDelta && (p.ScatterMS != 0 || p.PartitionMS != 0 || p.StitchMS != 0) {
			t.Errorf("%s keys=%d workers=%d: delta cell recorded scatter/partition/stitch time: %+v", p.Aggs, p.Keys, p.Workers, p)
		}
	}
	if len(perDomain) != 6 {
		t.Fatalf("sweep covers %d (shape, domain) cells, want 2 shapes x 3 domains", len(perDomain))
	}
	for k, pts := range perDomain {
		if !pts[0].Baseline {
			t.Errorf("%s keys=%d: sweep lacks the seed-serial baseline cell", k.aggs, k.keys)
		}
		for _, p := range pts[1:] {
			if p.Windows != pts[0].Windows {
				t.Errorf("%s keys=%d workers=%d: %d windows, want %d", k.aggs, k.keys, p.Workers, p.Windows, pts[0].Windows)
			}
			if p.ResultSum != pts[0].ResultSum {
				t.Errorf("%s keys=%d workers=%d checksum %d != %d", k.aggs, k.keys, p.Workers, p.ResultSum, pts[0].ResultSum)
			}
		}
	}
	large := MergeKeyDomains(8192)[2]
	engaged := false
	for _, p := range perDomain[cellKey{"sum,count,max", large}] {
		if !p.Baseline && p.PartitionMS > 0 {
			engaged = true
		}
	}
	if !engaged {
		t.Error("large-domain fused cells never recorded partition-stage time")
	}
}

// BenchmarkMergePartitioned measures the backlog-drain wall time of a
// large-key-domain grouped query at 1 and 4 workers — the acceptance
// benchmark for the partitioned merge (the merge stage should shrink
// toward 1/workers on a multicore host). It runs the shape with max: the
// invertible shape is delta-maintained and has nothing to partition.
func BenchmarkMergePartitioned(b *testing.B) {
	const (
		window = 1 << 16
		slide  = 1 << 12
		slides = 32
	)
	for _, cell := range []struct {
		name     string
		workers  int
		baseline bool
	}{{"serial", 1, true}, {"kernel-1", 1, false}, {"kernel-4", 4, false}} {
		b.Run(cell.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MeasureMerge(1, cell.workers, window, window, slide, slides, cell.baseline); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
