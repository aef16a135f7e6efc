package vector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the one definition of a column's payload bytes, shared by
// the wire block (serve) and the segment record (storage). A payload
// carries no type, name or row count; the container frames those and the
// decoder is told them. All integers are little-endian:
//
//	Int64/Timestamp  rows × 8 bytes (two's complement)
//	Float64          rows × 8 bytes (IEEE-754 bits)
//	Bool             rows × 1 byte (0/1; any non-zero byte decodes true)
//	Str              rows × (u32 len | len bytes)

// ErrPayload reports payload bytes that cannot hold the declared rows.
var ErrPayload = errors.New("vector: malformed column payload")

// PayloadLen returns the encoded byte length of v's payload.
func PayloadLen(v *Vector) int {
	switch v.typ {
	case Bool:
		return len(v.bs)
	case Str:
		n := 4 * len(v.str)
		for _, s := range v.str {
			n += len(s)
		}
		return n
	}
	return 8 * v.Len()
}

// AppendPayload appends the payload of v to b, part by part: a
// multi-part view encodes to the same bytes as its flattened column.
func AppendPayload(b []byte, v View) []byte {
	for _, p := range v.parts {
		b = AppendVectorPayload(b, p)
	}
	return b
}

// AppendVectorPayload appends the payload of the dense column v to b,
// growing b at most once.
func AppendVectorPayload(b []byte, v *Vector) []byte {
	b = slices.Grow(b, PayloadLen(v))
	switch v.typ {
	case Int64, Timestamp:
		for _, x := range v.i64 {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
	case Float64:
		for _, x := range v.f64 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	case Bool:
		for _, x := range v.bs {
			if x {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	case Str:
		for _, s := range v.str {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		}
	}
	return b
}

// DecodePayload appends rows values decoded from the front of b onto dst
// and returns the number of bytes consumed. rows is checked against the
// least b must hold before dst grows, so an absurd rows fails without
// allocating; on error dst keeps its previous values and the error wraps
// ErrPayload.
func DecodePayload(dst *Vector, b []byte, rows int) (int, error) {
	width := 8 // bytes per row; a string's minimum is its length prefix
	switch dst.typ {
	case Int64, Timestamp, Float64:
	case Bool:
		width = 1
	case Str:
		width = 4
	default:
		return 0, fmt.Errorf("%w: unsupported column type %s", ErrPayload, dst.typ)
	}
	if rows < 0 || rows > len(b)/width {
		return 0, fmt.Errorf("%w: %d %s rows in %d bytes", ErrPayload, rows, dst.typ, len(b))
	}
	switch dst.typ {
	case Int64, Timestamp:
		dst.i64 = slices.Grow(dst.i64, rows)
		for i := range rows {
			dst.i64 = append(dst.i64, int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	case Float64:
		dst.f64 = slices.Grow(dst.f64, rows)
		for i := range rows {
			dst.f64 = append(dst.f64, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	case Bool:
		dst.bs = slices.Grow(dst.bs, rows)
		for _, x := range b[:rows] {
			dst.bs = append(dst.bs, x != 0)
		}
	case Str:
		keep, off := len(dst.str), 0
		dst.str = slices.Grow(dst.str, rows)
		for i := range rows {
			n := -1
			if len(b)-off >= 4 {
				n = int(binary.LittleEndian.Uint32(b[off:]))
				off += 4
			}
			if n < 0 || n > len(b)-off {
				dst.Truncate(keep)
				return 0, fmt.Errorf("%w: string %d of %d runs past %d bytes", ErrPayload, i, rows, len(b))
			}
			dst.str = append(dst.str, string(b[off:off+n]))
			off += n
		}
		return off, nil
	}
	return width * rows, nil
}
