package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// mkCols builds one column per type, rows values each, with deterministic
// but irregular content (negative ints, NaN-adjacent floats, empty and
// multi-byte strings).
func mkCols(rows int) ([]string, []*vector.Vector) {
	names := []string{"i", "f", "s", "b", "ts"}
	ints := vector.New(vector.Int64, rows)
	floats := vector.New(vector.Float64, rows)
	strs := vector.New(vector.Str, rows)
	bools := vector.New(vector.Bool, rows)
	stamps := vector.New(vector.Timestamp, rows)
	for i := 0; i < rows; i++ {
		ints.AppendInt64(int64(i*i) - 7)
		floats.AppendFloat64(math.Sqrt(float64(i)) - 2.5)
		switch i % 3 {
		case 0:
			strs.AppendStr("")
		case 1:
			strs.AppendStr(fmt.Sprintf("row-%d", i))
		default:
			strs.AppendStr(strings.Repeat("é", i%5+1))
		}
		bools.AppendBool(i%2 == 1)
		stamps.AppendInt64(int64(1_700_000_000_000_000 + i))
	}
	return names, []*vector.Vector{ints, floats, strs, bools, stamps}
}

func sameCols(t *testing.T, want, got *vector.Vector) {
	t.Helper()
	if want.Type() != got.Type() {
		t.Fatalf("type mismatch: want %v got %v", want.Type(), got.Type())
	}
	if want.Len() != got.Len() {
		t.Fatalf("len mismatch: want %d got %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.Get(i) != got.Get(i) {
			t.Fatalf("row %d: want %v got %v", i, want.Get(i), got.Get(i))
		}
	}
}

func TestBlockRoundTripAllTypes(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 113} {
		names, cols := mkCols(rows)
		payload := AppendVectors(nil, names, cols)
		blk, err := DecodeBlock(payload)
		if err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		if blk.NumRows() != rows {
			t.Fatalf("rows=%d: decoded %d", rows, blk.NumRows())
		}
		if len(blk.Cols) != len(cols) {
			t.Fatalf("rows=%d: decoded %d cols", rows, len(blk.Cols))
		}
		for c := range cols {
			if blk.Names[c] != names[c] {
				t.Fatalf("col %d name: want %q got %q", c, names[c], blk.Names[c])
			}
			sameCols(t, cols[c], blk.Cols[c])
		}
	}
}

func TestBlockPositionalNames(t *testing.T) {
	_, cols := mkCols(4)
	payload := AppendVectors(nil, nil, cols)
	blk, err := DecodeBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	for c, name := range blk.Names {
		if name != "" {
			t.Fatalf("col %d: want positional empty name, got %q", c, name)
		}
	}
}

// TestMultiPartViewEncode checks the wire bytes of a column encoded from a
// boundary-spanning multi-part view equal those of the flattened column —
// the receiver cannot tell how the sender's window was segmented.
func TestMultiPartViewEncode(t *testing.T) {
	_, cols := mkCols(10)
	for _, col := range cols {
		flat := AppendViewCol(nil, "c", vector.ViewOf(col))
		for _, cut := range []int{1, 4, 9} {
			split := vector.NewView(col.Type(), col.Slice(0, cut), col.Slice(cut, col.Len()))
			if split.Contiguous() {
				t.Fatalf("split view is contiguous")
			}
			got := AppendViewCol(nil, "c", split)
			if !bytes.Equal(flat, got) {
				t.Fatalf("type %v cut %d: multi-part encode differs from flat", col.Type(), cut)
			}
		}
	}
}

// TestWirePayloadMatchesSegmentRecord pins the one column codec: the
// column bytes a segment record holds on disk are, column for column, the
// payload bytes an append block carries on the wire.
func TestWirePayloadMatchesSegmentRecord(t *testing.T) {
	names, cols := mkCols(9)
	schema := catalog.Schema{}
	var wire []byte
	for i, c := range cols {
		schema.Cols = append(schema.Cols, catalog.Column{Name: names[i], Type: c.Type()})
		wire = append(wire, AppendVectorCol(nil, "", c)[3:]...) // drop u8 type | u16 namelen
	}
	dir := t.TempDir()
	d, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Stream("s", schema)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]int64, cols[0].Len())
	if err := l.AppendChunk(0, cols, ts); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "streams", "*", "*.seg"))
	if len(files) != 1 {
		t.Fatalf("segment files: %v", files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// record = u32 bodyLen | u32 crc | u32 rows | column payloads | ts payload
	if len(raw) < 12+8*len(ts) {
		t.Fatalf("%d-byte segment", len(raw))
	}
	if rec := raw[12 : len(raw)-8*len(ts)]; !bytes.Equal(rec, wire) {
		t.Fatalf("segment column bytes differ from wire payload:\n disk %x\n wire %x", rec, wire)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	names, cols := mkCols(13)
	payload := AppendVectors(nil, names, cols)
	// Cutting the payload anywhere must yield an error, never a short or
	// ragged block.
	for cut := 0; cut < len(payload); cut += 3 {
		if _, err := DecodeBlock(payload[:cut]); err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	names, cols := mkCols(3)
	payload := AppendVectors(nil, names, cols)
	if _, err := DecodeBlock(append(payload, 0xEE)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	payload := AppendBlockHeader(nil, 1, 1)
	payload = append(payload, 0x7F) // bogus column type
	payload = appendU16(payload, 1)
	payload = append(payload, 'x', 0)
	if _, err := DecodeBlock(payload); err == nil {
		t.Fatal("unknown column type accepted")
	}
}

func TestDecodeRejectsOverdeclaredRows(t *testing.T) {
	// Header claims 1e9 rows with a near-empty payload: the reader must
	// fail fast instead of allocating for the declared count.
	payload := AppendBlockHeader(nil, 1_000_000_000, 1)
	payload = append(payload, byte(vector.Int64))
	payload = appendU16(payload, 1)
	payload = append(payload, 'x')
	if _, err := DecodeBlock(payload); err == nil {
		t.Fatal("overdeclared row count accepted")
	}
}

func TestDecodeValidatesFixedWidthBeforeAlloc(t *testing.T) {
	// The row count passes the 1-byte/row sanity floor (the payload holds
	// rows bytes) but an Int64 column needs 8 bytes/row: the decoder must
	// reject before sizing a vector allocation off the unvalidated count.
	const rows = 1 << 20
	payload := AppendBlockHeader(nil, rows, 1)
	payload = append(payload, byte(vector.Int64))
	payload = appendU16(payload, 1)
	payload = append(payload, 'x')
	payload = append(payload, make([]byte, rows)...) // 1 byte/row, not 8
	if _, err := DecodeBlock(payload); err == nil {
		t.Fatal("undersized fixed-width payload accepted")
	}

	// Same for strings: each row needs at least its u32 length prefix.
	payload = AppendBlockHeader(nil, rows, 1)
	payload = append(payload, byte(vector.Str))
	payload = appendU16(payload, 1)
	payload = append(payload, 'x')
	payload = append(payload, make([]byte, rows)...) // 1 byte/row, not 4
	if _, err := DecodeBlock(payload); err == nil {
		t.Fatal("undersized string payload accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{0xAB}, 70_000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, MsgType(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		typ, got, nbuf, err := ReadFrame(&buf, scratch)
		scratch = nbuf
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgType(i+1) {
			t.Fatalf("frame %d: type %d", i, typ)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	// Writer side refuses to emit.
	big := make([]byte, MaxFrame+1)
	if err := WriteFrame(io.Discard, MsgResult, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writer accepted oversized frame: %v", err)
	}
	// Reader side rejects the declared length before allocating.
	hdr := appendU32(nil, MaxFrame+1)
	hdr = append(hdr, byte(MsgResult))
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("reader accepted oversized frame: %v", err)
	}
}

func TestFrameRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPing, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	if _, _, _, err := ReadFrame(bytes.NewReader(cut), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}
