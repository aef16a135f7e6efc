package engine

import (
	"strings"
	"testing"
)

// TestSharedTailLifecycle covers the merge-tail catalog: queries with the
// same fragment, window length and head shape but different HAVING
// thresholds intern one sharedTail; different window lengths do not; heads
// are adopted during pumping, pruned after, and the tail disappears when
// its last subscriber deregisters.
func TestSharedTailLifecycle(t *testing.T) {
	e := sharedTestEngine(t)
	const sqlA = `SELECT x1, sum(x2) FROM f [RANGE 128 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 100`
	const sqlB = `SELECT x1, sum(x2) FROM f [RANGE 128 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 12000`
	const sqlOtherN = `SELECT x1, sum(x2) FROM f [RANGE 256 SLIDE 64] GROUP BY x1 HAVING sum(x2) > 100`
	var cA, cB collector
	qA, err := e.Register(sqlA, Options{Mode: Incremental, OnResult: cA.add})
	if err != nil {
		t.Fatal(err)
	}
	qB, err := e.Register(sqlB, Options{Mode: Incremental, OnResult: cB.add})
	if err != nil {
		t.Fatal(err)
	}
	qN, err := e.Register(sqlOtherN, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	qBase, err := e.Register(sqlA, Options{Mode: Incremental, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}

	_, st := qA.sharing()
	_, stB := qB.sharing()
	_, stN := qN.sharing()
	if st == nil || st != stB {
		t.Fatal("qA and qB must intern the same merge tail")
	}
	if stN == st {
		t.Fatal("different window length must not share a merge tail")
	}
	if stN == nil {
		t.Fatal("qN should intern its own merge tail")
	}
	if f, tl := qBase.sharing(); f != nil || tl != nil {
		t.Fatal("Baseline query must attach neither a fragment nor a tail")
	}
	if got := st.subscribers(); got != 2 {
		t.Fatalf("tail has %d subscribers, want 2", got)
	}
	if ex := qA.Explain(); !strings.Contains(ex, "merge shared×2") {
		t.Errorf("Explain misses merge tail sharing:\n%s", ex)
	}
	if ex := qBase.Explain(); !strings.Contains(ex, "fragment sharing: off") {
		t.Errorf("Explain misses the Baseline query's private evaluation:\n%s", ex)
	}

	feedSharedMix(t, e, 11, 2048, 256)
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	sA, sB := qA.Stats(), qB.Stats()
	if sA.AdoptedTails+sB.AdoptedTails == 0 {
		t.Fatalf("no merge head was ever adopted (qA %d/%d, qB %d/%d)",
			sA.AdoptedTails, sA.LedTails, sB.AdoptedTails, sB.LedTails)
	}
	if sA.LedTails+sB.LedTails == 0 {
		t.Fatal("no merge head was ever led")
	}
	if s := qBase.Stats(); s.AdoptedTails != 0 || s.LedTails != 0 || s.AdoptedSlides != 0 || s.LedSlides != 0 {
		t.Fatalf("Baseline query touched the catalog: %+v", s)
	}
	if got := st.cached(); got != 0 {
		t.Fatalf("%d heads cached after full drain (prune failed)", got)
	}

	// Residual tails must differ: same head, different HAVING thresholds.
	if len(cA.results) == 0 || len(cB.results) == 0 {
		t.Fatal("no windows")
	}
	same := true
	for i := range cA.results {
		if i >= len(cB.results) {
			break
		}
		if tableKey(cA.results[i].Table, false) != tableKey(cB.results[i].Table, false) {
			same = false
		}
	}
	if same {
		t.Fatal("different HAVING thresholds produced identical result streams — residuals not applied?")
	}

	e.Deregister(qB)
	if got := st.subscribers(); got != 1 {
		t.Fatalf("tail has %d subscribers after deregister, want 1", got)
	}
	if _, tl := qB.sharing(); tl != nil {
		t.Fatal("deregistered query still holds its tail")
	}
	e.Deregister(qA)
	e.Deregister(qN)
	e.Deregister(qBase)
	if n := e.sharesOf("f").size(); n != 0 {
		t.Fatalf("registry holds %d caches after deregistering every subscriber, want 0", n)
	}
}
