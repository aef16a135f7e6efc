package main

import (
	"testing"

	"datacell"
)

// TestOracleAgreesWithEngine runs 2000 generated rows per stream through
// an in-process datacell.DB for each of the four statement shapes and
// compares every window with the oracle's recomputation.
func TestOracleAgreesWithEngine(t *testing.T) {
	const slideRows, slides = 100, 20
	shapes := []*workload{
		{name: "grouped_filtered", streams: []string{"s"}, keys: 16, queries: []query{{
			sql:   "SELECT k, sum(v), count(*) FROM s [RANGE 500 SLIDE 100] WHERE v >= 300 GROUP BY k HAVING count(*) > 20",
			shape: shapeGrouped, rng: 500, a: 300, h: 20,
		}}},
		{name: "grouped_wide", streams: []string{"s"}, keys: 1024, queries: []query{{
			sql:   "SELECT k, sum(v), count(*) FROM s [RANGE 1000 SLIDE 100] GROUP BY k HAVING count(*) > 1",
			shape: shapeGrouped, rng: 1000, h: 1,
		}}},
		{name: "join", streams: []string{"s1", "s2"}, keys: 64, queries: []query{{
			sql:   "SELECT count(*), sum(s1.v) FROM s1 [RANGE 400 SLIDE 100], s2 [RANGE 400 SLIDE 100] WHERE s1.k = s2.k AND s1.v < 250",
			shape: shapeJoin, rng: 400, a: 250,
		}}},
		{name: "scalar", streams: []string{"s"}, keys: 1024, queries: []query{{
			sql:   "SELECT count(*), sum(v) FROM s [RANGE 800 SLIDE 100]",
			shape: shapeScalar, rng: 800,
		}}},
	}
	for _, w := range shapes {
		w.slideRows = slideRows
		t.Run(w.name, func(t *testing.T) {
			db := datacell.New()
			qs, err := newWorkloadDB(db, w, newTracer(w.name), 0)
			if err != nil {
				t.Fatal(err)
			}
			bufs := []*slideBuf{newSlideBuf(slideRows), newSlideBuf(slideRows)}
			windows := 0
			for i := 0; i < slides; i++ {
				for j, stream := range w.streams {
					cols := bufs[j].fill(42, j, i, w.keys)
					b, err := db.NewBatch(stream)
					if err != nil {
						t.Fatal(err)
					}
					b.Int64Col("k").AppendSlice(cols[0].Int64s())
					b.Int64Col("v").AppendSlice(cols[1].Int64s())
					if err := db.AppendBatch(stream, b); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := db.Pump(); err != nil {
					t.Fatal(err)
				}
				for _, r := range qs[0].Results() {
					windows++
					if r.Window != windows {
						t.Fatalf("window %d arrived as number %d", r.Window, windows)
					}
					if want := i - w.slidesToFirst(&w.queries[0]) + 2; r.Window != want {
						t.Fatalf("slide %d completed window %d, the harness expects %d", i, r.Window, want)
					}
					got, ok := tableChecksum(r.Table)
					if !ok {
						t.Fatalf("window %d has a non-integer column", r.Window)
					}
					if want := oracleChecksum(w, &w.queries[0], 42, r.Window); got != want {
						t.Errorf("window %d: engine %x, oracle %x (%d rows)", r.Window, got, want, r.Table.NumRows())
					}
				}
			}
			if want := slides - w.slidesToFirst(&w.queries[0]) + 1; windows != want {
				t.Errorf("%d windows, want %d", windows, want)
			}
		})
	}
}

func TestChecksumIgnoresRowOrderOnly(t *testing.T) {
	a := foldRows(rowHash(1, 10, 2)+rowHash(2, 20, 3), 2)
	b := foldRows(rowHash(2, 20, 3)+rowHash(1, 10, 2), 2)
	if a != b {
		t.Error("row order changed the checksum")
	}
	if c := foldRows(rowHash(1, 20, 3)+rowHash(2, 10, 2), 2); c == a {
		t.Error("swapping values between rows kept the checksum")
	}
	if c := foldRows(rowHash(1, 10, 2), 1); c == a {
		t.Error("dropping a row kept the checksum")
	}
}

func TestCheckWindows(t *testing.T) {
	got := checkWindows(5, 1004, 32)
	if len(got) != 32 || got[0] != 5 || got[31] != 1004 {
		t.Fatalf("checkWindows(5, 1004, 32) = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not increasing: %v", got)
		}
	}
	if got := checkWindows(3, 6, 32); len(got) != 4 {
		t.Errorf("a short range must be checked whole, got %v", got)
	}
	if got := checkWindows(4, 3, 32); got != nil {
		t.Errorf("an empty range gave %v", got)
	}
}
