package bench

import (
	"testing"

	"datacell/internal/core"
)

// TestMergeSweepChecksums runs a small merge sweep end to end — 32 slides
// over a 16-basic-window range, so 16 of its 17 windows expire a basic
// window from the merge state: every (shape, domain, workers) cell must
// produce the same number of windows
// and an identical checksum within its shape and domain, and every cell
// must be tagged with the kernel that ran — delta for both shapes (integer
// sum, count and max are all delta-maintained) at every worker count,
// instruction for the baselines.
func TestMergeSweepChecksums(t *testing.T) {
	points, err := MeasureMergeSweep(8192, 512, 32)
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
		want := core.MergeDelta
		if p.Baseline {
			want = core.MergeInstruction
		}
		if p.Kernel != want {
			t.Errorf("%s keys=%d workers=%d baseline=%v ran kernel %q, want %q", p.Aggs, p.Keys, p.Workers, p.Baseline, p.Kernel, want)
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
}

// BenchmarkMergeKernels measures the backlog-drain wall time of a
// large-key-domain grouped query with a max — the shape whose extreme the
// delta state rescans — through the seed-style serial merge and the
// delta-maintained kernel at 1 and 4 workers.
func BenchmarkMergeKernels(b *testing.B) {
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
