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

// BenchmarkRecordCodec encodes and decodes one 4096-row record of two
// BIGINT columns, the shape of a benchmark ingest chunk. It fails if
// encodeRecord allocates more than once per record: the buffer is sized
// exactly before the first payload byte is written.
func BenchmarkRecordCodec(b *testing.B) {
	const rows = 4096
	xs, ys, ts := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range xs {
		xs[i], ys[i], ts[i] = int64(i%64), int64(i), int64(1_700_000_000_000_000+i)
	}
	cols := []*vector.Vector{vector.FromInt64(xs), vector.FromInt64(ys)}
	schema := catalog.NewSchema(catalog.Column{Name: "k", Type: vector.Int64}, catalog.Column{Name: "v", Type: vector.Int64})
	if allocs := testing.AllocsPerRun(10, func() { encodeRecord(cols, ts) }); allocs > 1 {
		b.Fatalf("encodeRecord: %v allocs per record, want 1", allocs)
	}
	rec := encodeRecord(cols, ts)
	dst := []*vector.Vector{vector.New(vector.Int64, rows), vector.New(vector.Int64, rows)}
	dts := make([]int64, 0, rows)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rec)))
		for b.Loop() {
			encodeRecord(cols, ts)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rec)))
		for b.Loop() {
			for _, c := range dst {
				c.Truncate(0)
			}
			if _, err := decodeRecordBody(rec[recordHdrSize:], schema, dst, dts[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
