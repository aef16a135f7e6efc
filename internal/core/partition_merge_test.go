package core

import (
	"math/rand"
	"strings"
	"testing"

	"datacell/internal/exec"
	"datacell/internal/vector"
)

// genGroupedBW builds one basic window of skewed grouped data (indexed by
// source) as segment-boundary-shaped views.
func genGroupedBW(rng *rand.Rand, rows int, domain int64) [][]vector.View {
	x1 := make([]int64, rows)
	x2 := make([]int64, rows)
	for i := range x1 {
		k := rng.Int63n(domain)
		if rng.Intn(3) > 0 {
			k = rng.Int63n(1 + domain/16)
		}
		x1[i] = k
		x2[i] = rng.Int63n(2000) - 1000
	}
	return [][]vector.View{{splitView(x1), splitView(x2)}}
}

// TestPartitionedMergeMatchesSerialRuntime drives the same grouped
// incremental plan — a delta-maintained block with a max — through
// runtimes at Parallelism 1 and several higher settings, where the
// fragments fan out across the worker pool, over many slides with an
// identical feed, requiring bit-identical window results.
func TestPartitionedMergeMatchesSerialRuntime(t *testing.T) {
	prog := compile(t, `SELECT x1, sum(x2), count(*), max(x2) FROM s [RANGE 2048 SLIDE 512] GROUP BY x1`)
	ip, err := Rewrite(prog, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ip.GroupMerges) != 1 {
		t.Fatalf("grouped merge blocks: %d, want 1", len(ip.GroupMerges))
	}
	const slides, rows = 10, 512
	inputs := make([]exec.Input, 1)

	var want []string
	for _, par := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(77)) // identical feed per run
		rt := NewRuntimeOpts(ip, Options{Parallelism: par})
		var got []string
		for sl := 0; sl < slides; sl++ {
			tbl, _, err := rt.Step(genGroupedBW(rng, rows, 4096), inputs)
			if err != nil {
				t.Fatalf("par %d slide %d: %v", par, sl, err)
			}
			got = append(got, tblKey(tbl))
		}
		if par == 1 {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par %d slide %d differs:\n%s\nvs\n%s", par, i, got[i], want[i])
			}
		}
	}
}

// TestExplainShowsGroupedMergeBlock pins the Explain surface for a
// grouped merge block that runs its instructions: its kernel and why it is
// not delta-maintained (TestDeltaMergeEligibility covers every reason).
func TestExplainShowsGroupedMergeBlock(t *testing.T) {
	prog := compile(t, `SELECT x1, sum(x2 * 0.5) FROM s [RANGE 100 SLIDE 10] GROUP BY x1`)
	ip, err := Rewrite(prog, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	out := ip.Explain()
	if !strings.Contains(out, "grouped merge block @0") || !strings.Contains(out, "kernel=instruction: block runs as written (not delta: float sum)") {
		t.Fatalf("Explain lacks the grouped merge block:\n%s", out)
	}
}
