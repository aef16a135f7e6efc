package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunFanoutProducesRows(t *testing.T) {
	tbl, err := RunFanout(Config{Scale: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(FanoutQueryCounts) {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestWriteFanoutJSON(t *testing.T) {
	points, err := MeasureFanoutSweep(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	slidePoints := []FanoutSlidePoint{{
		Queries: 1, Slides: 4,
		SharedNsPerSlide: 1000, PrivateNsPerSlide: 2000, Speedup: 2,
	}}
	dir := t.TempDir()
	path, err := WriteFanoutJSON(points, slidePoints, dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_fanout.json" {
		t.Fatalf("path: %s", path)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Bench       string             `json:"bench"`
		Meta        RunMeta            `json:"meta"`
		Points      []FanoutPoint      `json:"points"`
		SlidePoints []FanoutSlidePoint `json:"slide_points"`
	}
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Meta.GoVersion == "" || got.Meta.GOMAXPROCS == 0 || got.Meta.SealThreshold == 0 {
		t.Fatalf("run metadata missing: %+v", got.Meta)
	}
	if got.Bench != "fanout" || len(got.Points) != len(FanoutQueryCounts) {
		t.Fatalf("parsed: %+v", got)
	}
	for _, p := range got.Points {
		if p.NsPerTuple <= 0 || p.Tuples != 256*4 {
			t.Errorf("point %+v", p)
		}
	}
	if len(got.SlidePoints) != 1 || got.SlidePoints[0].Speedup != 2 {
		t.Fatalf("slide points round-trip: %+v", got.SlidePoints)
	}
}

// TestFanoutSlideSweep runs the shared-plan slide sweep at a tiny scale
// and sanity-checks the measurements (positive, fragment sharing never
// slower than ~the measurement noise allows is asserted only at the CI
// bench scale — here we only require well-formed points).
func TestFanoutSlideSweep(t *testing.T) {
	old := FanoutSlideQueryCounts
	FanoutSlideQueryCounts = []int{1, 8}
	defer func() { FanoutSlideQueryCounts = old }()
	points, err := MeasureFanoutSlideSweep(1024, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	for _, p := range points {
		if p.SharedNsPerSlide <= 0 || p.PrivateNsPerSlide <= 0 || p.Speedup <= 0 {
			t.Errorf("malformed point %+v", p)
		}
	}
}

// TestFanoutIngestFlat is the acceptance check for the shared segment
// store: per-tuple ingest cost at 64 subscribed queries must stay within a
// small constant factor of the 1-query cost (the old per-query-basket
// path scaled ~linearly, i.e. ~64x here). Generous 4x bound + best-of-3
// to damp CI noise.
func TestFanoutIngestFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	best := 1e18
	for attempt := 0; attempt < 3; attempt++ {
		p1, err := MeasureFanout(1, 1024, 64)
		if err != nil {
			t.Fatal(err)
		}
		p64, err := MeasureFanout(64, 1024, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := p64.NsPerTuple / p1.NsPerTuple; ratio < best {
			best = ratio
		}
		if best < 4 {
			return
		}
	}
	t.Errorf("ingest cost not flat in query count: 64-query/1-query ns ratio %.2fx", best)
}
