package serve

import (
	"encoding/binary"
	"fmt"

	"datacell/internal/exec"
	"datacell/internal/vector"
)

// This file is the columnar frame codec: result tables and ingest batches
// cross the wire as *blocks* — whole columns appended as raw payload runs,
// encoded straight from vector.Vector payloads or multi-part vector.View
// parts. There is no per-row marshalling and no Value boxing anywhere on
// the path.
//
// Block layout (framing integers big-endian):
//
//	u32 rows | u16 ncols
//	per column:
//	  u8 type | u16 namelen | name bytes | payload
//
// The payload is the column codec of internal/vector/codec.go, the same
// bytes a segment record holds for the column.

// --- append-side primitives ------------------------------------------------

func appendU16(b []byte, x uint16) []byte {
	return append(b, byte(x>>8), byte(x))
}

func appendU32(b []byte, x uint32) []byte {
	return append(b, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
}

func appendU64(b []byte, x uint64) []byte {
	return append(b, byte(x>>56), byte(x>>48), byte(x>>40), byte(x>>32),
		byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
}

func appendI64(b []byte, x int64) []byte { return appendU64(b, uint64(x)) }

// appendStr32 appends a u32-length-prefixed string.
func appendStr32(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendBlockHeader starts a block of rows × ncols; exactly ncols
// column appends must follow, each carrying rows values.
func AppendBlockHeader(b []byte, rows, ncols int) []byte {
	b = appendU32(b, uint32(rows))
	return appendU16(b, uint16(ncols))
}

// AppendViewCol appends one named column from a (possibly multi-part)
// view, part at a time — a boundary-spanning window column is encoded
// without flattening. The view's length must equal the block's row count.
func AppendViewCol(b []byte, name string, v vector.View) []byte {
	return vector.AppendPayload(appendColHeader(b, name, v.Type()), v)
}

// AppendVectorCol appends one named single-part column.
func AppendVectorCol(b []byte, name string, v *vector.Vector) []byte {
	return vector.AppendVectorPayload(appendColHeader(b, name, v.Type()), v)
}

func appendColHeader(b []byte, name string, t vector.Type) []byte {
	b = append(b, byte(t))
	b = appendU16(b, uint16(len(name)))
	return append(b, name...)
}

// AppendTable appends an exec.Table as a block. All columns must share
// the table's row count (exec guarantees rectangularity).
func AppendTable(b []byte, t *exec.Table) []byte {
	b = AppendBlockHeader(b, t.NumRows(), len(t.Cols))
	for i, col := range t.Cols {
		b = AppendVectorCol(b, t.Names[i], col)
	}
	return b
}

// AppendVectors appends unnamed-or-named columns as a block; names may be
// nil (positional mapping at the receiver) but must otherwise match cols.
func AppendVectors(b []byte, names []string, cols []*vector.Vector) []byte {
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
	}
	b = AppendBlockHeader(b, rows, len(cols))
	for i, col := range cols {
		name := ""
		if names != nil {
			name = names[i]
		}
		b = AppendVectorCol(b, name, col)
	}
	return b
}

// --- decode side -----------------------------------------------------------

// byteReader walks a payload with bounds checking; the first overrun
// latches ErrTruncated.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d of %d", ErrTruncated, what, r.off, len(r.b))
	}
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail(fmt.Sprintf("%d bytes", n))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *byteReader) i64() int64 { return int64(r.u64()) }

func (r *byteReader) str32() string {
	n := r.u32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *byteReader) str16() string {
	n := r.u16()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// rest reports whether unread bytes remain.
func (r *byteReader) rest() int { return len(r.b) - r.off }

// Block is a decoded columnar block. Names may contain empty strings
// (positional columns).
type Block struct {
	Names []string
	Cols  []*vector.Vector
}

// NumRows returns the block's row count.
func (b *Block) NumRows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Table converts the block into an exec.Table sharing the column storage.
func (b *Block) Table() *exec.Table {
	return &exec.Table{Names: b.Names, Cols: b.Cols}
}

// decodeBlock reads one block from r. Column payloads are validated
// against the header row count before any column grows; any shortfall (a
// truncated or corrupt frame) fails with ErrTruncated rather than
// producing a ragged block.
func decodeBlock(r *byteReader) (*Block, error) {
	rows := int(r.u32())
	ncols := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	blk := &Block{Names: make([]string, ncols), Cols: make([]*vector.Vector, ncols)}
	for c := 0; c < ncols; c++ {
		typ := vector.Type(r.u8())
		if typ > vector.Timestamp {
			if r.err == nil {
				r.err = fmt.Errorf("serve: unknown column type %d", typ)
			}
			return nil, r.err
		}
		blk.Names[c] = r.str16()
		if r.err != nil {
			return nil, r.err
		}
		col := vector.New(typ, 0)
		n, err := vector.DecodePayload(col, r.b[r.off:], rows)
		if err != nil {
			return nil, fmt.Errorf("%w: column %q at offset %d: %w", ErrTruncated, blk.Names[c], r.off, err)
		}
		r.off += n
		blk.Cols[c] = col
	}
	return blk, nil
}

// DecodeBlock decodes a standalone block payload, rejecting trailing
// garbage.
func DecodeBlock(payload []byte) (*Block, error) {
	r := &byteReader{b: payload}
	blk, err := decodeBlock(r)
	if err != nil {
		return nil, err
	}
	if r.rest() != 0 {
		return nil, fmt.Errorf("serve: %d trailing bytes after block", r.rest())
	}
	return blk, nil
}
