package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"datacell/internal/catalog"
	"datacell/internal/vector"
)

// sealHistoryCycles is how many AppendChunk+Seal+Drop cycles each arm
// runs per benchmark op; the gate compares per-cycle medians, so one op
// (-benchtime=1x) already yields enough samples to be stable.
const sealHistoryCycles = 64

// BenchmarkSealHistory times one AppendChunk+Seal+Drop cycle with 10,
// 1 000 and 10 000 sealed files retained on disk. Each Drop removes the
// oldest file, so the retained count stays fixed. The arms run
// interleaved, one cycle each in turn, so fsync latency drifting over
// the run hits all of them alike. A seal's cost must not depend on the
// history behind it: the benchmark fails if the 10 000-file arm's median
// cycle costs more than twice the 10-file arm's.
func BenchmarkSealHistory(b *testing.B) {
	arms := []*sealHistoryArm{newSealHistoryArm(b, 10), newSealHistoryArm(b, 1000), newSealHistoryArm(b, 10000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < sealHistoryCycles; c++ {
			for _, a := range arms {
				a.cycle(b)
			}
		}
	}
	b.StopTimer()
	for _, a := range arms {
		if got := a.log.Files(); got != a.files {
			b.Fatalf("Files() = %d after steady-state cycles, want %d", got, a.files)
		}
		a.log.Close()
		b.ReportMetric(float64(a.median().Nanoseconds()), fmt.Sprintf("ns/cycle@%d", a.files))
	}
	lo, hi := arms[0], arms[len(arms)-1]
	if hi.median() > 2*lo.median() {
		b.Fatalf("seal cycle with %d files retained: %v, with %d: %v (> 2x)", hi.files, hi.median(), lo.files, lo.median())
	}
}

// sealHistoryArm is one StreamLog holding a fixed number of sealed files.
type sealHistoryArm struct {
	files   int
	log     *StreamLog
	next    int64
	samples []time.Duration
}

// newSealHistoryArm writes files one-row sealed segments straight to
// disk and recovers a log over them.
func newSealHistoryArm(b *testing.B, files int) *sealHistoryArm {
	schema := catalog.NewSchema(catalog.Column{Name: "v", Type: vector.Int64})
	dir := b.TempDir()
	hash := SchemaHash(schema)
	for base := int64(0); base < int64(files); base++ {
		rec := encodeRecord([]*vector.Vector{vector.FromInt64([]int64{base})}, []int64{base})
		raw := append(rec, encodeFooter(footer{base: base, rows: 1, records: 1, schemaHash: hash})...)
		if err := os.WriteFile(filepath.Join(dir, segFileName(base)), raw, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	l, err := newStreamLog(dir, schema, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Recover(); err != nil {
		b.Fatal(err)
	}
	return &sealHistoryArm{files: files, log: l, next: int64(files)}
}

// cycle appends and seals one one-row segment, then drops the oldest.
func (a *sealHistoryArm) cycle(b *testing.B) {
	start := time.Now()
	if err := a.log.AppendChunk(a.next, []*vector.Vector{vector.FromInt64([]int64{a.next})}, []int64{a.next}); err != nil {
		b.Fatal(err)
	}
	if err := a.log.Seal(a.next, 1); err != nil {
		b.Fatal(err)
	}
	a.next++
	if err := a.log.Drop(a.next - int64(a.files)); err != nil {
		b.Fatal(err)
	}
	a.samples = append(a.samples, time.Since(start))
}

func (a *sealHistoryArm) median() time.Duration {
	s := append([]time.Duration(nil), a.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
