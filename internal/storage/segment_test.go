package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/vector"
)

func testSchema() catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "x1", Type: vector.Int64},
		catalog.Column{Name: "x2", Type: vector.Float64},
		catalog.Column{Name: "x3", Type: vector.Str},
		catalog.Column{Name: "x4", Type: vector.Bool},
		catalog.Column{Name: "x5", Type: vector.Timestamp},
	)
}

// chunk builds one append batch of n rows starting at value base.
func chunk(base, n int) ([]*vector.Vector, []int64) {
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	bools := make([]bool, n)
	stamps := make([]int64, n)
	ts := make([]int64, n)
	for i := 0; i < n; i++ {
		v := base + i
		ints[i] = int64(v)
		floats[i] = float64(v) + 0.5
		strs[i] = "row-" + string(rune('a'+v%26))
		bools[i] = v%3 == 0
		stamps[i] = int64(v) * 1000
		ts[i] = int64(v) * 7
	}
	return []*vector.Vector{
		vector.FromInt64(ints), vector.FromFloat64(floats), vector.FromStr(strs),
		vector.FromBool(bools), vector.FromTimestamp(stamps),
	}, ts
}

func openLog(t *testing.T, dir string) *StreamLog {
	t.Helper()
	l, err := newStreamLog(dir, testSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func checkSeg(t *testing.T, seg SegmentData, wantBase int64, wantRows int) {
	t.Helper()
	if seg.Base != wantBase || seg.Rows != wantRows {
		t.Fatalf("segment base/rows = %d/%d, want %d/%d", seg.Base, seg.Rows, wantBase, wantRows)
	}
	if len(seg.TS) != wantRows {
		t.Fatalf("len(TS) = %d, want %d", len(seg.TS), wantRows)
	}
	for i := 0; i < wantRows; i++ {
		v := int(wantBase) + i
		if got := seg.Cols[0].Int64s()[i]; got != int64(v) {
			t.Fatalf("row %d: int col = %d, want %d", i, got, v)
		}
		if got := seg.Cols[1].Float64s()[i]; got != float64(v)+0.5 {
			t.Fatalf("row %d: float col = %v, want %v", i, got, float64(v)+0.5)
		}
		if got, want := seg.Cols[2].Strs()[i], "row-"+string(rune('a'+v%26)); got != want {
			t.Fatalf("row %d: str col = %q, want %q", i, got, want)
		}
		if got := seg.Cols[3].Bools()[i]; got != (v%3 == 0) {
			t.Fatalf("row %d: bool col = %v", i, got)
		}
		if got := seg.Cols[4].Int64s()[i]; got != int64(v)*1000 {
			t.Fatalf("row %d: ts col = %d", i, got)
		}
		if seg.TS[i] != int64(v)*7 {
			t.Fatalf("row %d: arrival ts = %d, want %d", i, seg.TS[i], int64(v)*7)
		}
	}
}

func TestSealedRoundTrip(t *testing.T) {
	l := openLog(t, t.TempDir())
	cols, ts := chunk(0, 10)
	if err := l.AppendChunk(0, cols, ts); err != nil {
		t.Fatal(err)
	}
	cols, ts = chunk(10, 6)
	if err := l.AppendChunk(0, cols, ts); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(0, 16); err != nil {
		t.Fatal(err)
	}
	seg, err := l.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Sealed {
		t.Fatal("fetched segment not sealed")
	}
	checkSeg(t, seg, 0, 16)
}

func TestFetchMissing(t *testing.T) {
	l := openLog(t, t.TempDir())
	if _, err := l.Fetch(42); err != ErrNotFound {
		t.Fatalf("Fetch(42) = %v, want ErrNotFound", err)
	}
}

func TestSealRowMismatch(t *testing.T) {
	l := openLog(t, t.TempDir())
	cols, ts := chunk(0, 4)
	if err := l.AppendChunk(0, cols, ts); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(0, 5); err == nil {
		t.Fatal("Seal with wrong row count succeeded")
	}
}

// writeSegments writes nSeal sealed segments of segRows rows each plus
// tailRows unsealed tail rows, one record per row batch of recRows.
func writeSegments(t *testing.T, l *StreamLog, nSeal, segRows, tailRows int) {
	t.Helper()
	base := 0
	for s := 0; s < nSeal; s++ {
		cols, ts := chunk(base, segRows)
		if err := l.AppendChunk(int64(base), cols, ts); err != nil {
			t.Fatal(err)
		}
		if err := l.Seal(int64(base), segRows); err != nil {
			t.Fatal(err)
		}
		base += segRows
	}
	if tailRows > 0 {
		cols, ts := chunk(base, tailRows)
		if err := l.AppendChunk(int64(base), cols, ts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoverCleanLog(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 3, 8, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir)
	segs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("recovered %d segments, want 4", len(segs))
	}
	for i := 0; i < 3; i++ {
		if !segs[i].Sealed {
			t.Fatalf("segment %d not sealed", i)
		}
		checkSeg(t, segs[i], int64(i*8), 8)
	}
	tail := segs[3]
	if tail.Sealed {
		t.Fatal("tail came back sealed")
	}
	checkSeg(t, tail, 24, 5)

	// The recovered tail must accept further appends into the same file.
	cols, ts := chunk(29, 3)
	if err := l2.AppendChunk(24, cols, ts); err != nil {
		t.Fatal(err)
	}
	if err := l2.Seal(24, 8); err != nil {
		t.Fatal(err)
	}
	seg, err := l2.Fetch(24)
	if err != nil {
		t.Fatal(err)
	}
	checkSeg(t, seg, 24, 8)
}

func TestRecoverTornTail(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 8, 9} { // bytes removed from the tail file
		dir := t.TempDir()
		l := openLog(t, dir)
		writeSegments(t, l, 1, 8, 0)
		// Two tail records of 4 rows each; tear inside the second.
		cols, ts := chunk(8, 4)
		if err := l.AppendChunk(8, cols, ts); err != nil {
			t.Fatal(err)
		}
		cols, ts = chunk(12, 4)
		if err := l.AppendChunk(8, cols, ts); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segFileName(8))
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		l2 := openLog(t, dir)
		segs, err := l2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 2 {
			t.Fatalf("cut %d: recovered %d segments, want 2", cut, len(segs))
		}
		checkSeg(t, segs[0], 0, 8)
		checkSeg(t, segs[1], 8, 4) // second record lost, first intact
		if segs[1].Sealed {
			t.Fatalf("cut %d: torn tail came back sealed", cut)
		}
	}
}

func TestRecoverTornFooter(t *testing.T) {
	// Tear mid-footer: the file was sealed but the footer write was cut.
	// The records are all intact, so recovery salvages every row and the
	// segment reopens as the mutable tail.
	for cut := 1; cut < footerSize; cut += 7 {
		dir := t.TempDir()
		l := openLog(t, dir)
		writeSegments(t, l, 2, 8, 0)
		path := filepath.Join(dir, segFileName(8))
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		l2 := openLog(t, dir)
		segs, err := l2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 2 {
			t.Fatalf("cut %d: recovered %d segments, want 2", cut, len(segs))
		}
		if !segs[0].Sealed || segs[1].Sealed {
			t.Fatalf("cut %d: sealed flags = %v/%v, want true/false", cut, segs[0].Sealed, segs[1].Sealed)
		}
		checkSeg(t, segs[1], 8, 8)
	}
}

func TestRecoverCorruptMiddleDropsSuffix(t *testing.T) {
	// Flip a byte inside the FIRST sealed segment's records: its footer
	// checksums no longer match, so it truncates to the valid record
	// prefix and every later segment file is removed.
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 3, 8, 0)
	path := filepath.Join(dir, segFileName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir)
	segs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// The single record is torn, so nothing of segment 0 survives and the
	// whole log is empty.
	if len(segs) != 0 {
		t.Fatalf("recovered %d segments, want 0", len(segs))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSegFileName(e.Name()); ok {
			t.Fatalf("segment file %s survived a mid-log tear", e.Name())
		}
	}
}

func TestRecoverGapDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 3, 8, 0)
	if err := os.Remove(filepath.Join(dir, segFileName(8))); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir)
	segs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Base != 0 {
		t.Fatalf("recovered %v segments, want just base 0", len(segs))
	}
	if _, err := os.Stat(filepath.Join(dir, segFileName(16))); !os.IsNotExist(err) {
		t.Fatal("segment past the gap survived recovery")
	}
}

func TestRecoverSchemaDrift(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 1, 8, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	other, err := newStreamLog(dir, catalog.NewSchema(catalog.Column{Name: "y", Type: vector.Int64}), false)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := other.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// The sealed file fails the schema-hash check and its records do not
	// decode under the new schema, so nothing survives.
	if len(segs) != 0 {
		t.Fatalf("recovered %d segments under a drifted schema, want 0", len(segs))
	}
}

// segFiles lists the segment-file bases in dir, ascending.
func segFiles(t *testing.T, dir string) []int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bases []int64
	for _, e := range entries {
		if b, ok := parseSegFileName(e.Name()); ok {
			bases = append(bases, b)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases
}

// scanSurvivors is the directory-scan Drop rule the sealed index
// replaced: it returns the bases a full ReadDir pass of Drop(below)
// leaves on disk — the open tail, every file at or above below, and
// every file whose footer does not prove its rows all precede below.
func scanSurvivors(t *testing.T, dir string, below, tailBase int64) []int64 {
	t.Helper()
	var keep []int64
	for _, base := range segFiles(t, dir) {
		if base == tailBase || base >= below {
			keep = append(keep, base)
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, segFileName(base)))
		if err != nil || len(raw) < footerSize {
			keep = append(keep, base)
			continue
		}
		ftr, err := decodeFooter(raw[len(raw)-footerSize:])
		if err != nil || ftr.base != base || base+int64(ftr.rows) > below {
			keep = append(keep, base)
		}
	}
	return keep
}

// dropAndCheck runs Drop(below) and asserts the files left on disk are
// exactly what the directory scan would have left, and that the sealed
// index lists exactly the sealed files still on disk.
func dropAndCheck(t *testing.T, l *StreamLog, below int64) {
	t.Helper()
	tailBase := int64(-1)
	if l.tailF != nil {
		tailBase = l.tailBase
	}
	want := scanSurvivors(t, l.dir, below, tailBase)
	if err := l.Drop(below); err != nil {
		t.Fatalf("Drop(%d): %v", below, err)
	}
	got := segFiles(t, l.dir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Drop(%d) left %v on disk, directory scan leaves %v", below, got, want)
	}
	checkIndex(t, l)
}

// indexBases lists the bases in the sealed index, in index order.
func indexBases(l *StreamLog) []int64 {
	var bases []int64
	for _, f := range l.sealed {
		bases = append(bases, f.base)
	}
	return bases
}

// checkIndex asserts the sealed index equals the non-tail files on disk.
func checkIndex(t *testing.T, l *StreamLog) {
	t.Helper()
	var sealed []int64
	for _, base := range segFiles(t, l.dir) {
		if l.tailF == nil || base != l.tailBase {
			sealed = append(sealed, base)
		}
	}
	if got := indexBases(l); !reflect.DeepEqual(got, sealed) {
		t.Fatalf("sealed index = %v, sealed files on disk = %v", got, sealed)
	}
	if want := len(segFiles(t, l.dir)); l.Files() != want {
		t.Fatalf("Files() = %d, %d segment files on disk", l.Files(), want)
	}
}

func TestRecoverBuildsSealedIndex(t *testing.T) {
	// Five sealed segments; the fourth loses part of its footer (a torn
	// seal), so it reopens as the tail and the fifth is a dropped suffix.
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 5, 8, 0)
	path := filepath.Join(dir, segFileName(24))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir)
	if _, err := l2.Recover(); err != nil {
		t.Fatal(err)
	}
	if want := []sealedFile{{0, 8}, {8, 8}, {16, 8}}; !reflect.DeepEqual(l2.sealed, want) {
		t.Fatalf("sealed index = %v, want %v", l2.sealed, want)
	}
	if l2.tailF == nil || l2.tailBase != 24 {
		t.Fatalf("tail = %d, want 24", l2.tailBase)
	}
	checkIndex(t, l2)

	// Sealing the recovered tail appends it to the index.
	if err := l2.Seal(24, 8); err != nil {
		t.Fatal(err)
	}
	if want := []sealedFile{{0, 8}, {8, 8}, {16, 8}, {24, 8}}; !reflect.DeepEqual(l2.sealed, want) {
		t.Fatalf("sealed index after Seal = %v, want %v", l2.sealed, want)
	}
	checkIndex(t, l2)
}

func TestDropRemovesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 4, 8, 4) // sealed 0, 8, 16, 24; tail at 32
	checkIndex(t, l)
	// Below the first segment: nothing goes.
	dropAndCheck(t, l, 4)
	if _, err := l.Fetch(0); err != nil {
		t.Fatalf("Fetch(0) after Drop(4) = %v, want segment", err)
	}
	dropAndCheck(t, l, 16)
	if _, err := l.Fetch(0); err != ErrNotFound {
		t.Fatalf("Fetch(0) after Drop = %v, want ErrNotFound", err)
	}
	if _, err := l.Fetch(8); err != ErrNotFound {
		t.Fatalf("Fetch(8) after Drop = %v, want ErrNotFound", err)
	}
	if _, err := l.Fetch(16); err != nil {
		t.Fatalf("Fetch(16) after Drop(16) = %v, want segment", err)
	}
	// Drop inside a segment keeps it (its rows are not all covered).
	dropAndCheck(t, l, 20)
	if _, err := l.Fetch(16); err != nil {
		t.Fatalf("Fetch(16) after Drop(20) = %v, want segment", err)
	}
	// A floor that moves backwards removes nothing.
	dropAndCheck(t, l, 10)
	// Above every segment: all sealed files go, the tail stays.
	dropAndCheck(t, l, 1<<40)
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []int64{32}) {
		t.Fatalf("files after Drop above all = %v, want just the tail [32]", got)
	}
}

func TestDropNeverRemovesTail(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 2, 8, 8) // tail at 16 holds a full segment's rows
	dropAndCheck(t, l, 1<<40)
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []int64{16}) {
		t.Fatalf("files = %v, want the tail [16]", got)
	}
	// Once sealed, the former tail is an ordinary droppable segment.
	if err := l.Seal(16, 8); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, l)
	dropAndCheck(t, l, 24)
	if got := segFiles(t, dir); len(got) != 0 {
		t.Fatalf("files = %v, want none", got)
	}
}

func TestDropKeepsCorruptFooter(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 4, 8, 0)
	path := filepath.Join(dir, segFileName(8))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // footer checksum
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// The corrupt file stays; the valid files on both sides of it go.
	dropAndCheck(t, l, 32)
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []int64{8}) {
		t.Fatalf("files = %v, want [8]", got)
	}
	dropAndCheck(t, l, 32)
	// It was kept in the index, not skipped past: once its footer is
	// whole again, the next Drop removes it.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	dropAndCheck(t, l, 32)
	if got := segFiles(t, dir); len(got) != 0 {
		t.Fatalf("files = %v, want none", got)
	}
}

func TestDropRetriesFailedRemove(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 3, 8, 2) // sealed 0, 8, 16; tail at 24
	fail := errors.New("injected remove failure")
	if os.Geteuid() == 0 {
		// Root ignores directory permissions: inject the failure instead.
		removeFile = func(string) error { return fail }
		defer func() { removeFile = os.Remove }()
	} else {
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755)
	}
	if err := l.Drop(16); err == nil {
		t.Fatal("Drop into an unwritable directory succeeded")
	}
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []int64{0, 8, 16, 24}) {
		t.Fatalf("files after failed Drop = %v, want all four", got)
	}
	checkIndex(t, l)

	removeFile = os.Remove
	if err := os.Chmod(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	dropAndCheck(t, l, 16)
	if got := segFiles(t, dir); !reflect.DeepEqual(got, []int64{16, 24}) {
		t.Fatalf("files after retried Drop = %v, want [16 24]", got)
	}
}

func TestSealIndexesFileWhenCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	writeSegments(t, l, 1, 8, 8) // sealed 0; tail at 8 holds a full segment
	fail := errors.New("injected close failure")
	closeFile = func(f *os.File) error {
		f.Close()
		return fail
	}
	defer func() { closeFile = (*os.File).Close }()
	if err := l.Seal(8, 8); err != fail {
		t.Fatalf("Seal = %v, want the close failure", err)
	}
	closeFile = (*os.File).Close
	// Footer and fsync succeeded, so the file is complete: it is indexed
	// like any sealed file and a later Drop removes it.
	if want := []sealedFile{{0, 8}, {8, 8}}; !reflect.DeepEqual(l.sealed, want) {
		t.Fatalf("sealed index = %v, want %v", l.sealed, want)
	}
	checkIndex(t, l)
	dropAndCheck(t, l, 16)
	if got := segFiles(t, dir); len(got) != 0 {
		t.Fatalf("files = %v, want none", got)
	}
}

func TestFloatBitPatternsSurvive(t *testing.T) {
	schema := catalog.NewSchema(catalog.Column{Name: "f", Type: vector.Float64})
	l, err := newStreamLog(t.TempDir(), schema, false)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	if err := l.AppendChunk(0, []*vector.Vector{vector.FromFloat64(vals)}, make([]int64, len(vals))); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(0, len(vals)); err != nil {
		t.Fatal(err)
	}
	seg, err := l.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	got := seg.Cols[0].Float64s()
	for i, want := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("value %d: bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	err = d.UpdateManifest(func(m *Manifest) {
		m.NextSeq = 3
		m.Streams = append(m.Streams, SourceDef{Name: "s", Cols: []ColumnDef{{Name: "x1", Type: uint8(vector.Int64)}}})
		m.Tables = append(m.Tables, SourceDef{Name: "t", Cols: []ColumnDef{{Name: "k", Type: uint8(vector.Str)}}})
		m.Queries = append(m.Queries, QueryDef{
			Seq: 2, SQL: "SELECT x1 FROM s [RANGE 10 SLIDE 5]", Parallelism: 4,
			Start: map[string]int64{"s": 17},
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	m := d2.Manifest()
	if m.NextSeq != 3 || len(m.Streams) != 1 || len(m.Tables) != 1 || len(m.Queries) != 1 {
		t.Fatalf("reloaded manifest = %+v", m)
	}
	q := m.Queries[0]
	if q.Seq != 2 || q.Parallelism != 4 || q.Start["s"] != 17 {
		t.Fatalf("reloaded query = %+v", q)
	}

	// Mutating the returned copy must not leak into the Dir.
	m.Queries[0].Start["s"] = 99
	if d2.Manifest().Queries[0].Start["s"] != 17 {
		t.Fatal("Manifest() returned a shallow copy")
	}
}

func TestManifestTornWriteKeepsOld(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateManifest(func(m *Manifest) { m.NextSeq = 1 }); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between temp-file write and rename: a stale .tmp
	// must not shadow or corrupt the real manifest.
	if err := os.WriteFile(filepath.Join(root, manifestName+".tmp"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Manifest().NextSeq != 1 {
		t.Fatalf("NextSeq = %d, want 1", d2.Manifest().NextSeq)
	}
}

func TestEscapeStreamName(t *testing.T) {
	cases := map[string]string{
		"plain":         "plain",
		"CamelCase_0-9": "CamelCase_0-9",
		"a/b":           "a%2Fb",
		"..":            "%2E%2E",
		"sp ace":        "sp%20ace",
	}
	for in, want := range cases {
		if got := escapeStreamName(in); got != want {
			t.Errorf("escapeStreamName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStreamLogRejectsCrossSegmentAppend(t *testing.T) {
	l := openLog(t, t.TempDir())
	cols, ts := chunk(0, 2)
	if err := l.AppendChunk(0, cols, ts); err != nil {
		t.Fatal(err)
	}
	cols, ts = chunk(2, 2)
	if err := l.AppendChunk(5, cols, ts); err == nil {
		t.Fatal("append to a different base with an open tail succeeded")
	}
}
