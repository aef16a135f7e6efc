package core

import (
	"fmt"
	"math/rand"
	"testing"

	"datacell/internal/exec"
)

// tablesEqual compares two result tables cell-for-cell (nil == nil).
func tablesEqual(a, b *exec.Table) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("one table nil: %v vs %v", a == nil, b == nil)
	}
	if a == nil {
		return nil
	}
	if len(a.Cols) != len(b.Cols) || a.NumRows() != b.NumRows() {
		return fmt.Errorf("shape %dx%d vs %dx%d", len(a.Cols), a.NumRows(), len(b.Cols), b.NumRows())
	}
	for c := range a.Cols {
		for r := 0; r < a.NumRows(); r++ {
			if a.Cols[c].Get(r).String() != b.Cols[c].Get(r).String() {
				return fmt.Errorf("col %d row %d: %s vs %s", c, r, a.Cols[c].Get(r), b.Cols[c].Get(r))
			}
		}
	}
	return nil
}

// joinSlide is one slide's generated columns for the two joined streams.
type joinSlide struct {
	lx1, lx2, rx1, rx2 []int64
}

// genJoinSlides builds a randomized multi-slide workload. skew selects the
// key/filter distribution: "uniform", "onekey" (all rows share one join
// key), "selective-left" (the left filter passes ~1/1000 of rows),
// "empty-left" (the left filter passes nothing).
func genJoinSlides(rng *rand.Rand, slides, rows int, skew string) []joinSlide {
	out := make([]joinSlide, slides)
	for s := range out {
		n := rows
		if rng.Intn(8) == 0 {
			n = 0 // occasionally a completely empty basic window
		}
		sl := joinSlide{
			lx1: make([]int64, n), lx2: make([]int64, n),
			rx1: make([]int64, n), rx2: make([]int64, n),
		}
		for i := 0; i < n; i++ {
			sl.lx1[i] = int64(rng.Intn(1000))
			sl.rx1[i] = int64(rng.Intn(1000))
			switch skew {
			case "onekey":
				sl.lx2[i], sl.rx2[i] = 7, 7
			default:
				sl.lx2[i] = int64(rng.Intn(32))
				sl.rx2[i] = int64(rng.Intn(32))
			}
		}
		out[s] = sl
	}
	return out
}

func queryForSkew(skew string) string {
	base := `SELECT count(*), sum(s.x1), sum(s2.x1) FROM s [RANGE 40 SLIDE 10], s2 [RANGE 40 SLIDE 10] WHERE s.x2 = s2.x2`
	switch skew {
	case "selective-left":
		return base + ` AND s.x1 < 1`
	case "empty-left":
		return base + ` AND s.x1 < 0`
	}
	return base
}

// TestAdaptiveJoinDifferential: the greedy/interned join path is
// bit-identical to the written-order right-builds baseline across
// randomized multi-slide workloads, at parallelism 1 and 4, under every
// skew (including all-rows-one-key and 1000x-selective filters).
func TestAdaptiveJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, skew := range []string{"uniform", "onekey", "selective-left", "empty-left"} {
		t.Run(skew, func(t *testing.T) {
			prog := compile(t, queryForSkew(skew))
			ip, err := Rewrite(prog, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			type arm struct {
				name string
				rt   *Runtime
			}
			arms := []arm{
				{"baseline-p1", NewRuntimeOpts(ip, Options{Parallelism: 1, Baseline: true})},
				{"adaptive-p1", NewRuntimeOpts(ip, Options{Parallelism: 1})},
				{"adaptive-p4", NewRuntimeOpts(ip, Options{Parallelism: 4})},
				{"baseline-p4", NewRuntimeOpts(ip, Options{Parallelism: 4, Baseline: true})},
			}
			if arms[0].rt.joinAdaptive || !arms[1].rt.joinAdaptive {
				t.Fatal("Baseline gate not applied")
			}
			reused := int64(0)
			for step, sl := range genJoinSlides(rng, 60, 24, skew) {
				var want *exec.Table
				for ai, a := range arms {
					tbl, stats := stepWith(t, a.rt, 2, sl.lx1, sl.lx2, sl.rx1, sl.rx2)
					if ai == 0 {
						want = tbl
						continue
					}
					if err := tablesEqual(want, tbl); err != nil {
						t.Fatalf("step %d: %s diverges from baseline: %v", step, a.name, err)
					}
					if a.name == "adaptive-p1" {
						reused += stats.BuildsReused
					} else if a.name == "baseline-p4" && stats.BuildsReused != 0 {
						t.Fatalf("baseline reported BuildsReused=%d", stats.BuildsReused)
					}
				}
			}
			if skew != "empty-left" && reused == 0 {
				t.Error("adaptive path never reused an interned build table")
			}
		})
	}
}

// TestAdaptiveJoinInternedLifecycle: interned build tables are released as
// their basic windows expire — across 10k slides the table count stays
// bounded by the live windows — and steady-state slides reuse tables.
func TestAdaptiveJoinInternedLifecycle(t *testing.T) {
	prog := compile(t, `SELECT count(*) FROM s [RANGE 8 SLIDE 2], s2 [RANGE 8 SLIDE 2] WHERE s.x2 = s2.x2`)
	ip, err := Rewrite(prog, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeOpts(ip, Options{Parallelism: 2})
	if !rt.joinAdaptive {
		t.Fatal("adaptive planning not enabled")
	}
	rng := rand.New(rand.NewSource(5))
	reused := int64(0)
	for step := 0; step < 10000; step++ {
		x := []int64{rng.Int63n(4), rng.Int63n(4)}
		k := []int64{rng.Int63n(4), rng.Int63n(4)}
		_, stats := stepWith(t, rt, 2, x, k, k, x)
		reused += stats.BuildsReused
		if got := rt.JoinTableCount(); got > 2*ip.N {
			t.Fatalf("step %d: %d interned tables held, want <= %d (expiry leak)", step, got, 2*ip.N)
		}
	}
	if rt.CellCount() != ip.N*ip.N {
		t.Fatalf("cells: %d", rt.CellCount())
	}
	if reused == 0 {
		t.Fatal("no steady-state build-table reuse across 10k slides")
	}
	// Steady state: each slide adds 2N-1 probing cells and builds at most
	// a table per new basic window; reuse must dominate.
	if avg := float64(reused) / 10000; avg < float64(ip.N) {
		t.Errorf("average reuse %.2f per slide, want >= %d", avg, ip.N)
	}
}

// TestAdaptiveJoinEmptyCellCache: a plan whose cell stage is join+takes
// caches one empty cell file and zeroes empty rows/columns without
// evaluation or table builds.
func TestAdaptiveJoinEmptyCellCache(t *testing.T) {
	prog := compile(t, `SELECT count(*), sum(s2.x1) FROM s [RANGE 4 SLIDE 2], s2 [RANGE 4 SLIDE 2] WHERE s.x2 = s2.x2 AND s.x1 < 0`)
	ip, err := Rewrite(prog, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeOpts(ip, Options{})
	if !rt.joinAdaptive {
		t.Fatal("adaptive planning not enabled")
	}
	if !rt.emptyCellOK {
		t.Fatal("join+take cell stage not recognized as empty-cell constant")
	}
	for step := 0; step < 6; step++ {
		tbl, _ := stepWith(t, rt, 2, []int64{1, 2}, []int64{3, 4}, []int64{1, 2}, []int64{3, 4})
		if tbl != nil && tbl.Cols[0].Get(0).I != 0 {
			t.Fatalf("step %d: count %s", step, tbl)
		}
	}
	if rt.emptyFile == nil {
		t.Error("empty cell file was never cached")
	}
	if rt.JoinTableCount() != 0 {
		t.Errorf("%d build tables built for all-empty matrix", rt.JoinTableCount())
	}
}
