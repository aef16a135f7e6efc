package core

import (
	"fmt"
	"math/rand"
	"runtime"
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
// time lands in MergeNS even on the slides that only fill the window.
func TestDeltaMergeMatchesBaseline(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		n         int
		domain    int64
		kept      bool // the HAVING filter lives in the delta state
	}{
		{"sum-count", `SELECT x1, sum(x2), count(*) FROM s [RANGE 2048 SLIDE 512] GROUP BY x1`, 4, 4096, false},
		{"count-having", `SELECT x1, count(*) FROM s [RANGE 3584 SLIDE 512] GROUP BY x1 HAVING count(*) > 2`, 7, 300, true},
		{"filtered", `SELECT x1, sum(x2) FROM s [RANGE 512 SLIDE 512] WHERE x2 > 0 GROUP BY x1`, 1, 64, false},
		{"keys-only", `SELECT x1 FROM s [RANGE 1024 SLIDE 512] GROUP BY x1`, 2, 700, false},
		{"having-key", `SELECT x1, sum(x2) FROM s [RANGE 2048 SLIDE 512] GROUP BY x1 HAVING x1 <> 7 AND x1 >= 3`, 4, 40, true},
		{"having-compound", `SELECT x1, sum(x2), count(*) FROM s [RANGE 2048 SLIDE 512] GROUP BY x1 HAVING sum(x2) > 100 AND count(*) >= 3`, 4, 600, true},
		{"having-float-const", `SELECT sum(x2), x1 FROM s [RANGE 2048 SLIDE 512] GROUP BY x1 HAVING count(*) > 2.5`, 4, 900, true},
		{"having-avg", `SELECT x1, avg(x2) FROM s [RANGE 1536 SLIDE 512] GROUP BY x1 HAVING count(*) > 1`, 3, 2000, true},
		{"having-modulo", `SELECT x1, sum(x2) FROM s [RANGE 1536 SLIDE 512] GROUP BY x1 HAVING sum(x2) % 7 > 2`, 3, 300, false},
		{"min-max-having", `SELECT x1, min(x2), max(x2), count(*) FROM s [RANGE 2048 SLIDE 512] GROUP BY x1 HAVING max(x2) > 500`, 4, 900, true},
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
				got, _, rt := run(Options{Parallelism: par})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("par %d slide %d differs from Baseline:\n%s\nvs\n%s", par, i, got[i], want[i])
					}
				}
				st := rt.DeltaState()
				if st.Blocks != 1 || st.Rows == 0 || st.Groups == 0 {
					t.Fatalf("par %d: delta path not taken: %+v", par, st)
				}
				if kept := st.Filters == 1; kept != tc.kept {
					t.Fatalf("par %d: %d filters kept in the delta state, want kept=%v\n%s", par, st.Filters, tc.kept, ip.Explain())
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
		{sql: `SELECT x1, sum(x2) FROM s [LANDMARK SLIDE 10] GROUP BY x1`, n: 1, landmark: true, kernel: MergeInstruction, reason: "landmark"},
		{sql: `SELECT x1, sum(x2), max(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeDelta},
		{sql: `SELECT x1, min(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeDelta},
		{sql: `SELECT x1, min(x2 * 0.5) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeInstruction, reason: "float min/max"},
		{sql: `SELECT x1, sum(x2 * 0.5) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeInstruction, reason: "float sum"},
		{sql: `SELECT x1, avg(x2) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`, n: 10, kernel: MergeDelta},
		{sql: `SELECT x1, x2, count(*) FROM s [RANGE 100 SLIDE 10] GROUP BY x1, x2`, n: 10, kernel: MergeInstruction, reason: "generic key"},
		{sql: `SELECT s.x1, count(*) FROM s [RANGE 20 SLIDE 10], s2 [RANGE 20 SLIDE 10] WHERE s.x2 = s2.x2 GROUP BY s.x1`, n: 2, nSources: 2, kernel: MergeInstruction, reason: "join-fed"},
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
		if tc.kernel == MergeInstruction {
			wantText += ": block runs as written (not delta: " + tc.reason + ")"
		}
		if !strings.Contains(text, wantText) {
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

// TestDeltaMergeLeaderFollower models a slide group's step: two look-alike
// runtimes consume the SAME slot files (one EvalFragments, as the step's
// memo hands them out), are handed one shared TailState, and exchange
// merge heads with leadership flipping between them per window. Only the
// runtime that merges a window touches the state: an adopting follower
// performs no add and no expire, and the next window's leader — whichever
// runtime it is — advances the state from where the last one left it, so
// there is exactly one rebuild besides those forced by a failed leader
// (then the follower has no head to adopt, merges the window again itself
// and, finding the state already past it, rebuilds). Both runtimes must
// track a private Baseline runtime bit for bit and never allocate a
// private state. Captured heads must be fresh and stay immutable, and the
// shared slot files must never be written.
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
	state := &TailState{}

	type published struct {
		head *MergeHead
		snap string
	}
	var heads []published
	var files []SlotFile
	var fileSnaps []string
	wantRebuilds := 0
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

		// Leadership flips in runs of varying length; every seventh window
		// the follower finds its leader aborted and merges privately.
		leader := (sl / (1 + sl%3)) % 2
		aborted := sl%7 == 5
		var head *MergeHead
		order := []int{leader, 1 - leader}
		for _, who := range order {
			tx := &TailExchange{State: state, Prev: int64(sl), End: int64(sl + 1)}
			if who == leader {
				tx.Capture = true
			} else if !aborted {
				tx.Head = head
			}
			before := state.Stats()
			res, err := rts[who].Apply(shared, []int64{0}, inputs, []*TailExchange{tx})
			if err != nil {
				t.Fatal(err)
			}
			if who == leader {
				head = res[0].Head
			}
			after := state.Stats()
			switch {
			case sl < n-1:
				if after != before {
					t.Fatalf("slide %d: a filling window touched the state: %+v -> %+v", sl, before, after)
				}
			case who == leader && sl > n-1:
				if after.Adds != before.Adds+1 || after.Expires != before.Expires+1 || after.Rebuilds != before.Rebuilds {
					t.Fatalf("slide %d: leader did not step the state once: %+v -> %+v", sl, before, after)
				}
			case who != leader && !aborted:
				if after.Adds != before.Adds || after.Expires != before.Expires || after.Rebuilds != before.Rebuilds {
					t.Fatalf("slide %d: adopting follower touched the state: %+v -> %+v", sl, before, after)
				}
			case who != leader:
				wantRebuilds++
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
		if rt.own != nil {
			t.Fatalf("runtime %d allocated a private delta state", i)
		}
	}
	// One rebuild when the window first fills, one per aborted leader.
	if st := state.Stats(); st.Rebuilds != 1+wantRebuilds || st.Adds != slides-n || st.Expires != slides-n {
		t.Fatalf("shared state %+v, want %d rebuilds and %d adds and expires", st, 1+wantRebuilds, slides-n)
	}
}

// TestDeltaMergeRebuildsAfterError makes a slide fail after slot rotation
// (the residual tail divides by a group total that is zero in exactly one
// window). The error comes after the block's merge, which had already
// brought the totals to that window and tagged them so; every later window
// must again match a Baseline runtime that saw the same error, stepping
// the state once per slide: the only rebuild is the one that first fills it.
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
			continue
		}
		if tblKey(got) != tblKey(want) {
			t.Fatalf("slide %d (after %d failed slides): diverges from Baseline:\n%s\nvs\n%s", sl, failed, tblKey(got), tblKey(want))
		}
		if st := rt.DeltaState(); sl >= n-1 && (st.Blocks != 1 || st.Rebuilds != 1 || st.Adds != sl-(n-1)) {
			t.Fatalf("slide %d: %+v, want 1 rebuild and %d adds", sl, st, sl-(n-1))
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

// TestDeltaHeadScratch pins the head-lifetime rule of a delta block. A
// plan whose residual is a HAVING select/take chain over the head emits
// only the groups it keeps into the runtime's scratch — one storage,
// reused by the next merge — when no other query can adopt it: no tail
// exchange, a follower merging privately, or a solo leader, which the
// engine does not ask to capture. A leader whose head a later member of
// its group adopts captures a fresh full head, and a plan that binds the
// head into its result gets a fresh one whatever the exchange.
func TestDeltaHeadScratch(t *testing.T) {
	const n, rows = 4, 128
	having := deltaPlan(t, `SELECT x1, sum(x2), count(*) FROM s [RANGE 512 SLIDE 128] GROUP BY x1 HAVING count(*) > 1`, n, false)
	bound := deltaPlan(t, `SELECT x1, sum(x2), count(*) FROM s [RANGE 512 SLIDE 128] GROUP BY x1`, n, false)
	if ex := having.Explain(); !strings.Contains(ex, "; kept groups only (count(*) > 1) when the head goes to scratch (") {
		t.Errorf("Explain misses the scratch rule and its kept-groups filter:\n%s", ex)
	}
	if ex := bound.Explain(); !strings.Contains(ex, "; fresh head every slide (the residual is not a select/take chain)\n") {
		t.Errorf("Explain misses the fresh-head rule and why:\n%s", ex)
	}
	for _, tc := range []struct{ sql, pred, why string }{
		{sql: `SELECT x1, sum(x2) FROM s [RANGE 512 SLIDE 128] GROUP BY x1 HAVING x1 = 3 AND sum(x2) < 2.5`, pred: "sum(x2) < 2.5 AND x1 = 3"},
		{sql: `SELECT x1 FROM s [RANGE 512 SLIDE 128] GROUP BY x1 HAVING count(*) > 4`, pred: "sum(r10) > 4"},
		{sql: `SELECT x1, sum(x2) FROM s [RANGE 512 SLIDE 128] GROUP BY x1 HAVING sum(x2) % 7 > 2`, why: "the residual is not a select/take chain"},
		{sql: `SELECT x1, sum(x2) FROM s [RANGE 512 SLIDE 128] GROUP BY x1 HAVING sum(x2) > 7 OR x1 = 2`, why: "the residual is not a select/take chain"},
		{sql: `SELECT x1, sum(x2), count(*) FROM s [RANGE 512 SLIDE 128] GROUP BY x1`, why: "the residual is not a select/take chain"},
	} {
		conj, pred, why := deltaPlan(t, tc.sql, n, false).HeadFilter(0)
		if pred != tc.pred || why != tc.why || (conj != nil) != (why == "") {
			t.Errorf("%s: HeadFilter %v %q (%q), want %q (%q)", tc.sql, conj, pred, why, tc.pred, tc.why)
		}
	}
	noTx := (*TailExchange)(nil)
	follower := &TailExchange{End: 1} // no head to adopt: merges privately
	solo := &TailExchange{}
	leader := &TailExchange{Capture: true}
	for _, tc := range []struct {
		name    string
		ip      *IncPlan
		tx      *TailExchange
		scratch bool
	}{
		{"no exchange", having, noTx, true},
		{"private follower", having, follower, true},
		{"solo leader", having, solo, true},
		{"shared leader", having, leader, false},
		{"result-bound", bound, noTx, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRuntimeOpts(tc.ip, Options{})
			inputs := make([]exec.Input, 1)
			rng := rand.New(rand.NewSource(9))
			for sl := 0; sl < n; sl++ {
				if _, _, err := rt.Step(genGroupedBW(rng, rows, 300), inputs); err != nil {
					t.Fatal(err)
				}
			}
			// headAt merges the full window again and returns where the
			// head's key column lives.
			headAt := func() *int64 {
				tx := tc.tx
				_, env, published, err := rt.merge(inputs, tx)
				if err != nil {
					t.Fatal(err)
				}
				defer clear(env)
				if tx != nil && tx.Capture && published == nil {
					t.Fatal("shared leader published no head")
				}
				// A head in scratch holds only the groups HAVING keeps.
				head, groups := env[tc.ip.GroupMerges[0].KeyOuts[0]].Vec.Len(), rt.DeltaState().Groups
				if kept := head < groups; kept != tc.scratch {
					t.Fatalf("head of %d rows over %d groups; want kept-only %v", head, groups, tc.scratch)
				}
				return &env[tc.ip.GroupMerges[0].KeyOuts[0]].Vec.Int64s()[0]
			}
			first, second := headAt(), headAt()
			if (first == second) != tc.scratch {
				t.Fatalf("two merges share the head's storage: %v; want %v", first == second, tc.scratch)
			}
		})
	}
}

// BenchmarkGroupedHead merges merge_wide's shape — GROUP BY x1 HAVING
// count(*) > 4 over 32 basic windows of 2048 rows — at 4 096 and 65 536
// keys and reports the merge stage's bytes per slide: runtime.MemStats
// around Apply (slot rotation, one expire and one add, the merge and its
// residual), with the fragment evaluated beforehand. At 65 536 keys the
// HAVING clause keeps a few hundred of the live groups; at 4 096 it keeps
// nearly all of them. It fails if the larger domain allocates more: a
// merge must not allocate in proportion to the groups its result drops.
// It also reports the records the HAVING filter kept in the delta state
// reads per slide (visited/slide), and fails if at 65 536 keys that
// exceeds the heads the slide touched — at most the added and the expired
// partial's rows, 2 x 2048 — plus one verdict word per 64 arena records
// plus the rows kept: a slide must not visit the groups its result drops.
func BenchmarkGroupedHead(b *testing.B) {
	const n, rows = 32, 2048
	bytes := map[int64]float64{}
	for _, domain := range []int64{4096, 65536} {
		b.Run(fmt.Sprintf("keys=%d", domain), func(b *testing.B) {
			ip, err := Rewrite(compile(b, fmt.Sprintf(`SELECT x1, sum(x2), count(*) FROM s [RANGE %d SLIDE %d] GROUP BY x1 HAVING count(*) > 4`, n*rows, rows)), n, false)
			if err != nil {
				b.Fatal(err)
			}
			rt := NewRuntime(ip)
			in := make([]exec.Input, 1)
			rng := rand.New(rand.NewSource(1))
			fragment := func() [][]SlotFile {
				x1, x2 := make([]int64, rows), make([]int64, rows)
				for i := range x1 {
					x1[i], x2[i] = rng.Int63n(domain), rng.Int63n(1000)
				}
				bw := [][]vector.View{{vector.ViewOf(vector.FromInt64(x1)), vector.ViewOf(vector.FromInt64(x2))}}
				files, _, err := rt.EvalFragments([][][]vector.View{bw}, in)
				if err != nil {
					b.Fatal(err)
				}
				return files
			}
			var bound int // touched + capacity/64 + kept, summed over the timed slides
			apply := func(files [][]SlotFile) StepStats {
				res, err := rt.Apply(files, []int64{0}, in, nil)
				if err != nil {
					b.Fatal(err)
				}
				bound += 2*rows + rt.DeltaState().ArenaCap/64
				if res[0].Table != nil {
					bound += res[0].Table.NumRows()
				}
				return res[0].Stats
			}
			for sl := 0; sl < 2*n; sl++ {
				apply(fragment()) // fill the window, then let the state and scratch settle
			}
			b.ResetTimer()
			var mergeNS int64
			bound = 0
			visited := rt.DeltaState().Visited
			for i := 0; i < b.N; i++ {
				mergeNS += apply(fragment()).MergeNS
			}
			b.StopTimer()
			visited = rt.DeltaState().Visited - visited
			b.ReportMetric(float64(mergeNS)/float64(b.N), "merge-ns/slide")
			b.ReportMetric(float64(visited)/float64(b.N), "visited/slide")
			if domain == 65536 && visited > bound {
				b.Fatalf("the HAVING filter visited %d records over %d slides, over touched + capacity/64 + kept (%d): the merge visits groups its result drops", visited, b.N, bound)
			}
			const slides = 5
			var total uint64
			for i := 0; i < slides; i++ {
				files := fragment()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				apply(files)
				runtime.ReadMemStats(&after)
				total += after.TotalAlloc - before.TotalAlloc
			}
			bytes[domain] = float64(total) / slides
			b.ReportMetric(bytes[domain], "merge-B/slide")
		})
	}
	small, ranSmall := bytes[4096]
	large, ranLarge := bytes[65536]
	if ranSmall && ranLarge && large > small {
		b.Fatalf("a merge allocates %.0f B at 65536 keys but %.0f B at 4096: the head is materialized for rows the HAVING clause drops", large, small)
	}
}
