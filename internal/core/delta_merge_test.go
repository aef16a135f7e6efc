package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datacell/internal/exec"
	"datacell/internal/vector"
)

// deltaPlan rewrites q and returns its incremental plan.
func deltaPlan(t *testing.T, q string, n int, landmark bool) *IncPlan {
	t.Helper()
	ip, err := Rewrite(compile(t, q), n, landmark)
	if err != nil {
		t.Fatalf("rewrite %q: %v", q, err)
	}
	return ip
}

// TestDeltaMergeMatchesBaseline drives delta-eligible grouped plans through
// the default runtime at Parallelism 1 and 4 and through the Baseline
// runtime (instruction merge) over an identical feed: every window must be
// bit-identical in values and row order, the default runtimes must have
// taken the delta path, and their stage clock must be honest — add/expire
// time lands in MergeNS even on the slides that only fill the window, and
// the block never engages scatter, shard or stitch whatever the
// parallelism.
func TestDeltaMergeMatchesBaseline(t *testing.T) {
	forceShards(t, 8) // the re-grouping kernels WOULD shard at these sizes
	for _, tc := range []struct {
		name, sql string
		n         int
		domain    int64
	}{
		{"sum-count", `SELECT x1, sum(x2), count(*) FROM s [RANGE 2048 SLIDE 512] GROUP BY x1`, 4, 4096},
		{"count-having", `SELECT x1, count(*) FROM s [RANGE 3584 SLIDE 512] GROUP BY x1 HAVING count(*) > 2`, 7, 300},
		{"filtered", `SELECT x1, sum(x2) FROM s [RANGE 512 SLIDE 512] WHERE x2 > 0 GROUP BY x1`, 1, 64},
		{"keys-only", `SELECT x1 FROM s [RANGE 1024 SLIDE 512] GROUP BY x1`, 2, 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ip := deltaPlan(t, tc.sql, tc.n, false)
			const slides, rows = 24, 512
			inputs := make([]exec.Input, 1)
			run := func(opts Options) (got []string, clock StepStats, rt *Runtime) {
				rng := rand.New(rand.NewSource(77))
				rt = NewRuntimeOpts(ip, opts)
				for sl := 0; sl < slides; sl++ {
					tbl, stats, err := rt.Step(genGroupedBW(rng, rows, tc.domain), inputs)
					if err != nil {
						t.Fatalf("%+v slide %d: %v", opts, sl, err)
					}
					if !opts.Baseline && !stats.Emitted && stats.MergeNS <= 0 {
						t.Fatalf("%+v slide %d: window still filling, yet no add time in MergeNS: %+v", opts, sl, stats)
					}
					clock.Add(stats)
					got = append(got, tblKey(tbl))
				}
				return got, clock, rt
			}
			want, _, base := run(Options{Baseline: true})
			if st := base.DeltaState(); st.Blocks != 0 {
				t.Fatalf("Baseline runtime holds delta state: %+v", st)
			}
			for _, par := range []int{1, 4} {
				got, clock, rt := run(Options{Parallelism: par})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("par %d slide %d differs from Baseline:\n%s\nvs\n%s", par, i, got[i], want[i])
					}
				}
				if clock.ScatterNS != 0 || clock.PartitionNS != 0 || clock.StitchNS != 0 {
					t.Fatalf("par %d: delta block engaged scatter/shard/stitch: %+v", par, clock)
				}
				st := rt.DeltaState()
				if st.Blocks != 1 || st.Rows == 0 || st.Groups == 0 {
					t.Fatalf("par %d: delta path not taken: %+v", par, st)
				}
				if rt.MemorySlots() != tc.n {
					t.Fatalf("par %d: %d slots, want %d", par, rt.MemorySlots(), tc.n)
				}
			}
		})
	}
}

// TestDeltaMergeEligibility pins the kernel choice and the first reason a
// block misses the delta path, as MergeKernel decides and Explain prints,
// and that a runtime built over an ineligible plan holds no delta state.
func TestDeltaMergeEligibility(t *testing.T) {
	for _, tc := range []struct {
		sql      string
		n        int
		landmark bool
		baseline bool
		kernel   string
		reason   string
		nSources int
	}{
		{sql: `SELECT x1, sum(x2), count(*) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeDelta},
		{sql: `SELECT x1, sum(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, baseline: true, kernel: MergeInstruction, reason: "baseline"},
		{sql: `SELECT x1, sum(x2) FROM s [LANDMARK SLIDE 10] GROUP BY x1`, n: 1, landmark: true, kernel: MergeFused, reason: "landmark"},
		{sql: `SELECT x1, sum(x2), max(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeFused, reason: "min/max"},
		{sql: `SELECT x1, min(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeFused, reason: "min/max"},
		{sql: `SELECT x1, sum(x2 * 0.5) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeFused, reason: "float sum"},
		{sql: `SELECT x1, avg(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeDelta},
		{sql: `SELECT x1, x2, count(*) FROM s [RANGE 100 SLIDE 10] GROUP BY x1, x2`, n: 10, kernel: MergeIndex, reason: "generic key"},
		{sql: `SELECT s.x1, count(*) FROM s [RANGE 20 SLIDE 10], s2 [RANGE 20 SLIDE 10] WHERE s.x2 = s2.x2 GROUP BY s.x1`, n: 2, nSources: 2, kernel: MergeFused, reason: "join-fed"},
	} {
		ip := deltaPlan(t, tc.sql, tc.n, tc.landmark)
		if len(ip.GroupMerges) != 1 {
			t.Fatalf("%s: %d grouped merge blocks, want 1", tc.sql, len(ip.GroupMerges))
		}
		opts := Options{Baseline: tc.baseline}
		kernel, reason := ip.MergeKernel(0, opts)
		if kernel != tc.kernel || reason != tc.reason {
			t.Errorf("%s: kernel %q (%q), want %q (%q)", tc.sql, kernel, reason, tc.kernel, tc.reason)
		}
		rt := NewRuntimeOpts(ip, opts)
		text := rt.Explain()
		wantText := "kernel=" + tc.kernel
		if tc.reason != "" {
			wantText = "not delta: " + tc.reason
		}
		if !strings.Contains(text, wantText) || strings.Contains(text, "partition-parallel eligible") {
			t.Errorf("%s: Explain lacks %q:\n%s", tc.sql, wantText, text)
		}
		// Drive a few slides: the state exists exactly when the kernel is delta.
		nsrc := max(tc.nSources, 1)
		for sl := 0; sl < tc.n+2; sl++ {
			bw := make([][]vector.View, nsrc)
			for s := range bw {
				bw[s] = genBW(sl, s, 10)
			}
			if _, _, err := rt.Step(bw, make([]exec.Input, nsrc)); err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
		}
		if got := rt.DeltaState().Blocks; (got == 1) != (tc.kernel == MergeDelta) {
			t.Errorf("%s: %d delta blocks with kernel %s", tc.sql, got, tc.kernel)
		}
	}
}

// headSnapshot deep-copies a merge head so later mutation is detectable.
func headSnapshot(h *MergeHead) string {
	var sb strings.Builder
	for _, v := range append(append([]*vector.Vector(nil), h.Keys...), h.Aggs...) {
		fmt.Fprint(&sb, v.Int64s(), ";")
	}
	return sb.String()
}

// fileSnapshot renders every vector of a slot file.
func fileSnapshot(f SlotFile) string {
	var sb strings.Builder
	for _, d := range f {
		if d.Kind == exec.KindVec {
			fmt.Fprint(&sb, d.Vec.Int64s(), ";")
		}
	}
	return sb.String()
}

// TestDeltaMergeLeaderFollower models the engine's catalog: two look-alike
// runtimes consume the SAME slot files (one EvalFragments, as the fragment
// catalog hands them out) and exchange merge heads with leadership flipping
// between them per window. The follower skips the emission but must still
// advance its state — it leads the very next window — so both must track a
// private Baseline runtime bit for bit. Published heads must be fresh and
// stay immutable, and the shared slot files must never be written.
func TestDeltaMergeLeaderFollower(t *testing.T) {
	const n, slides, rows = 5, 60, 96
	ipA := deltaPlan(t, `SELECT x1, sum(x2), count(*) FROM s [RANGE 480 SLIDE 96] GROUP BY x1 HAVING count(*) > 1`, n, false)
	ipB := deltaPlan(t, `SELECT x1, sum(x2), count(*) FROM s [RANGE 480 SLIDE 96] GROUP BY x1 HAVING count(*) > 3`, n, false)
	if ipA.MergeTailKey(0) == "" || ipA.MergeTailKey(0) != ipB.MergeTailKey(0) {
		t.Fatal("test plans must share a merge tail")
	}
	rts := []*Runtime{NewRuntimeOpts(ipA, Options{}), NewRuntimeOpts(ipB, Options{Parallelism: 4})}
	refs := []*Runtime{NewRuntimeOpts(ipA, Options{Baseline: true}), NewRuntimeOpts(ipB, Options{Baseline: true})}
	inputs := make([]exec.Input, 1)
	rng := rand.New(rand.NewSource(5))

	type published struct {
		head *MergeHead
		snap string
	}
	var heads []published
	var files []SlotFile
	var fileSnaps []string
	for sl := 0; sl < slides; sl++ {
		bw := genGroupedBW(rng, rows, 40)
		if sl%9 == 4 {
			bw = genGroupedBW(rng, 0, 40) // an empty basic window
		}
		batch := [][][]vector.View{bw}
		shared, _, err := rts[0].EvalFragments(batch, inputs)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, shared[0][0])
		fileSnaps = append(fileSnaps, fileSnapshot(shared[0][0]))

		// Leadership flips in runs of varying length.
		leader := (sl / (1 + sl%3)) % 2
		var head *MergeHead
		order := []int{leader, 1 - leader}
		for _, who := range order {
			tx := &TailExchange{}
			if who == leader {
				tx.Publish = func(h *MergeHead, err error) { head = h }
			} else {
				tx.Fetch = func() (*MergeHead, error) { return head, nil }
			}
			res, err := rts[who].Apply(shared, []int64{0}, inputs, []*TailExchange{tx})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := refs[who].Step(bw, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := tablesEqual(res[0].Table, want); err != nil || tblKey(res[0].Table) != tblKey(want) {
				t.Fatalf("slide %d runtime %d (leader %d): diverges from Baseline: %v", sl, who, leader, err)
			}
		}
		if sl >= n-1 {
			if head == nil {
				t.Fatalf("slide %d: leader published no head", sl)
			}
			for _, p := range heads {
				if p.head == head || p.head.Keys[0] == head.Keys[0] || p.head.Aggs[0] == head.Aggs[0] {
					t.Fatalf("slide %d: published head reuses an earlier head's storage", sl)
				}
			}
			heads = append(heads, published{head, headSnapshot(head)})
		}
	}
	for i, p := range heads {
		if headSnapshot(p.head) != p.snap {
			t.Fatalf("published head %d was mutated after publication", i)
		}
	}
	for i, f := range files {
		if fileSnapshot(f) != fileSnaps[i] {
			t.Fatalf("shared slot file %d was written by a subscriber's merge state", i)
		}
	}
	for i, rt := range rts {
		if st := rt.DeltaState(); st.Blocks != 1 {
			t.Fatalf("runtime %d left the delta path: %+v", i, st)
		}
	}
}

// TestDeltaMergeRebuildsAfterError makes a slide fail after slot rotation
// (the residual tail divides by a group total that is zero in exactly one
// window): the half-advanced state must be dropped and rebuilt from the
// slot ring, so every later window again matches a Baseline runtime that
// saw the same error.
func TestDeltaMergeRebuildsAfterError(t *testing.T) {
	const n = 3
	ip := deltaPlan(t, `SELECT x1, sum(x2), count(*) % sum(x2) FROM s [RANGE 12 SLIDE 4] GROUP BY x1`, n, false)
	rt, ref := NewRuntimeOpts(ip, Options{}), NewRuntimeOpts(ip, Options{Baseline: true})
	if k, _ := ip.MergeKernel(0, Options{}); k != MergeDelta {
		t.Fatalf("plan is not delta-eligible: %s", k)
	}
	inputs := make([]exec.Input, 1)
	failed := 0
	for sl := 0; sl < 20; sl++ {
		x1 := []int64{1, 2, 3, int64(sl % 5)}
		x2 := []int64{5, 7, 9, 11}
		if sl == 6 {
			x2[1] = -14 // key 2 sums to 7+7-14 = 0 while this slide is live...
		}
		if sl == 7 || sl == 8 {
			x2[1] = 10 // ...and is non-zero again afterwards (7+... never 0)
		}
		bw := [][]vector.View{{splitView(x1), splitView(x2)}}
		got, _, gotErr := rt.Step(bw, inputs)
		want, _, wantErr := ref.Step(bw, inputs)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("slide %d: error mismatch: delta %v, baseline %v", sl, gotErr, wantErr)
		}
		if gotErr != nil {
			failed++
			if rt.deltaSynced {
				t.Fatalf("slide %d: errored slide left the state marked in sync", sl)
			}
			continue
		}
		if tblKey(got) != tblKey(want) {
			t.Fatalf("slide %d (after %d failed slides): diverges from Baseline:\n%s\nvs\n%s", sl, failed, tblKey(got), tblKey(want))
		}
		if !rt.deltaSynced || rt.DeltaState().Blocks != 1 {
			t.Fatalf("slide %d: state not back in sync: synced=%v %+v", sl, rt.deltaSynced, rt.DeltaState())
		}
	}
	if failed == 0 {
		t.Fatal("the feed never triggered the merge-stage error")
	}
}

// TestDeltaMergeBoundedState slides GROUP BY over a monotonically
// increasing key for 10 000 slides: every group dies N slides after it
// appears, so the state must stay at O(live groups + live partial rows) —
// table and arena capacity bounded, the slot ring at N files.
func TestDeltaMergeBoundedState(t *testing.T) {
	const n, rows, slides = 4, 32, 10000
	ip := deltaPlan(t, `SELECT x1, sum(x2), count(*) FROM s [RANGE 128 SLIDE 32] GROUP BY x1`, n, false)
	rt := NewRuntimeOpts(ip, Options{})
	inputs := make([]exec.Input, 1)
	var peak DeltaState
	for sl := 0; sl < slides; sl++ {
		x1 := make([]int64, rows)
		x2 := make([]int64, rows)
		for i := range x1 {
			x1[i] = int64(sl*rows+i) / 2 // two rows per key, keys never return
			x2[i] = int64(i)
		}
		tbl, _, err := rt.Step([][]vector.View{{splitView(x1), splitView(x2)}}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if sl >= n-1 && tbl.NumRows() != n*rows/2 {
			t.Fatalf("slide %d: %d groups, want %d", sl, tbl.NumRows(), n*rows/2)
		}
		st := rt.DeltaState()
		peak.TableCap = max(peak.TableCap, st.TableCap)
		peak.ArenaCap = max(peak.ArenaCap, st.ArenaCap)
		peak.Groups = max(peak.Groups, st.Groups)
		peak.Rows = max(peak.Rows, st.Rows)
	}
	// Per basic window the fragment emits rows/2 partial rows.
	live := n * rows / 2
	if peak.Rows > live || peak.Groups > live {
		t.Fatalf("live state exceeded the window: %+v (window holds %d partial rows)", peak, live)
	}
	if peak.TableCap > 4*live || peak.ArenaCap > 2*live {
		t.Fatalf("capacity grew with the drifting domain: %+v for %d live rows", peak, live)
	}
	if rt.MemorySlots() != n {
		t.Fatalf("%d slot files held, want %d", rt.MemorySlots(), n)
	}
}
