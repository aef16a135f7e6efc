package core

import (
	"fmt"
	"strings"
	"testing"

	"datacell/internal/exec"
	"datacell/internal/vector"
)

// tblKey canonicalizes a result table for equality checks.
func tblKey(tbl *exec.Table) string {
	if tbl == nil {
		return "<nil>"
	}
	var sb strings.Builder
	for i := 0; i < tbl.NumRows(); i++ {
		for _, v := range tbl.Row(i) {
			sb.WriteString(v.String())
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// genBW produces slide sl's deterministic basic window for source s as
// deliberately discontiguous views (segment-boundary shape).
func genBW(sl, s, rows int) []vector.View {
	x1 := make([]int64, rows)
	x2 := make([]int64, rows)
	for i := range x1 {
		x1[i] = int64((sl*31 + s*17 + i) % 7)
		x2[i] = int64((sl*13+i*5+s)%101 - 50)
	}
	return []vector.View{splitView(x1), splitView(x2)}
}

// applyBatch drives k slides through the two runtime primitives the way the
// engine's one firing path does: every fragment first, then the serial
// apply stage.
func applyBatch(t *testing.T, rt *Runtime, batch [][][]vector.View, inputs []exec.Input) []StepResult {
	t.Helper()
	files, ns, err := rt.EvalFragments(batch, inputs)
	if err != nil {
		t.Fatal(err)
	}
	fragNS := make([]int64, len(batch))
	for i := range fragNS {
		fragNS[i] = ns / int64(len(batch))
	}
	res, err := rt.Apply(files, fragNS, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(batch) {
		t.Fatalf("Apply(%d slides) returned %d results", len(batch), len(res))
	}
	return res
}

// TestSlideBatchMatchesSequential drives the same incremental plans once
// through per-slide Step calls on a sequential runtime and once through
// multi-slide EvalFragments + Apply on a 4-worker runtime, over
// segment-boundary-shaped views, and requires bit-identical result tables
// in matching order.
func TestSlideBatchMatchesSequential(t *testing.T) {
	cases := []struct {
		query    string
		n        int
		nSources int
	}{
		{`SELECT count(*), sum(x2), min(x2), max(x2) FROM s [RANGE 40 SLIDE 10]`, 4, 1},
		{`SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 10] WHERE x1 > 1 GROUP BY x1`, 4, 1},
		{`SELECT count(*) FROM s [RANGE 20 SLIDE 10], s2 [RANGE 20 SLIDE 10] WHERE s.x2 = s2.x2`, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.query, func(t *testing.T) {
			prog := compile(t, tc.query)
			ip, err := Rewrite(prog, tc.n, false)
			if err != nil {
				t.Fatal(err)
			}
			seq := NewRuntime(ip)
			par := NewRuntimeOpts(ip, Options{Parallelism: 4})
			if par.Parallelism() != 4 {
				t.Fatal("parallelism not applied")
			}
			const slides, rows = 12, 10
			inputs := make([]exec.Input, len(prog.Sources))

			var want []string
			for sl := 0; sl < slides; sl++ {
				newBW := make([][]vector.View, len(prog.Sources))
				for s := 0; s < tc.nSources; s++ {
					newBW[s] = genBW(sl, s, rows)
				}
				tbl, _, err := seq.Step(newBW, inputs)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, tblKey(tbl))
			}

			var got []string
			// Uneven batch sizes cross the preface boundary mid-batch.
			for _, k := range []int{1, 3, 5, 2, 1} {
				batch := make([][][]vector.View, k)
				for i := range batch {
					sl := len(got) + i
					batch[i] = make([][]vector.View, len(prog.Sources))
					for s := 0; s < tc.nSources; s++ {
						batch[i][s] = genBW(sl, s, rows)
					}
				}
				for _, r := range applyBatch(t, par, batch, inputs) {
					got = append(got, tblKey(r.Table))
				}
			}

			if len(got) != len(want) {
				t.Fatalf("windows: got %d want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("slide %d differs:\n seq: %s\n par: %s", i, want[i], got[i])
				}
			}
			if seq.Steps() != par.Steps() {
				t.Errorf("steps: seq %d par %d", seq.Steps(), par.Steps())
			}
		})
	}
}

// TestSlideBatchLongRun pushes a deeper batch through a grouped plan to
// exercise worker reuse across many tasks (more tasks than workers).
func TestSlideBatchLongRun(t *testing.T) {
	prog := compile(t, `SELECT x1, count(*) FROM s [RANGE 30 SLIDE 10] GROUP BY x1`)
	ip, err := Rewrite(prog, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewRuntime(ip)
	par := NewRuntimeOpts(ip, Options{Parallelism: 3})
	const slides, rows = 40, 10
	inputs := make([]exec.Input, 1)

	batch := make([][][]vector.View, slides)
	var want []string
	for sl := 0; sl < slides; sl++ {
		newBW := [][]vector.View{genBW(sl, 0, rows)}
		tbl, _, err := seq.Step(newBW, inputs)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tblKey(tbl))
		batch[sl] = [][]vector.View{genBW(sl, 0, rows)}
	}
	for i, r := range applyBatch(t, par, batch, inputs) {
		if k := tblKey(r.Table); k != want[i] {
			t.Fatalf("slide %d: got %s want %s", i, k, want[i])
		}
	}
	if par.MemorySlots() != seq.MemorySlots() {
		t.Errorf("slots: par %d seq %d", par.MemorySlots(), seq.MemorySlots())
	}
}

// TestForEachErrorIsFirstByIndex pins the deterministic error contract:
// whichever worker fails first in wall time, the reported error is the
// lowest-index task's, matching sequential execution.
func TestForEachErrorIsFirstByIndex(t *testing.T) {
	prog := compile(t, `SELECT sum(x2) FROM s [RANGE 20 SLIDE 10]`)
	ip, err := Rewrite(prog, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeOpts(ip, Options{Parallelism: 4})
	for trial := 0; trial < 20; trial++ {
		err := rt.forEach(8, func(task int, w *workerEnv) error {
			if task >= 3 {
				return fmt.Errorf("task %d failed", task)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("trial %d: got %v, want task 3's error", trial, err)
		}
	}
}
