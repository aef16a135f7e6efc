package vector

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// codecCols returns one column per type with the awkward values: negative
// and extreme ints, NaN/−0.0/±Inf float bit patterns, empty and
// multi-byte strings.
func codecCols() []*Vector {
	return []*Vector{
		FromInt64([]int64{0, -1, math.MinInt64, math.MaxInt64, 42}),
		FromTimestamp([]int64{1_700_000_000_000_000, 0, -5}),
		FromFloat64([]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.Float64frombits(0x7ff8_0000_dead_beef), 1.5}),
		FromBool([]bool{true, false, false, true}),
		FromStr([]string{"", "a", "", "héllo", "\x00\xff"}),
	}
}

// sameBits compares two columns value by value, floats by bit pattern so
// NaN payloads and −0.0 count.
func sameBits(t *testing.T, want, got *Vector) {
	t.Helper()
	if want.Type() != got.Type() || want.Len() != got.Len() {
		t.Fatalf("want %v, got %v", want, got)
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Get(i), got.Get(i)
		if want.Type() == Float64 {
			if math.Float64bits(w.F) != math.Float64bits(g.F) {
				t.Fatalf("row %d: want bits %x, got %x", i, math.Float64bits(w.F), math.Float64bits(g.F))
			}
		} else if w != g {
			t.Fatalf("row %d: want %v, got %v", i, w, g)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, col := range codecCols() {
		enc := AppendVectorPayload([]byte{0xAA}, col)[1:]
		if len(enc) != PayloadLen(col) {
			t.Fatalf("%s: encoded %d bytes, PayloadLen %d", col.Type(), len(enc), PayloadLen(col))
		}
		// Every cut of the column into a multi-part view encodes alike.
		for cut := 0; cut <= col.Len(); cut++ {
			v := NewView(col.Type(), col.Slice(0, cut), col.Slice(cut, col.Len()))
			if got := AppendPayload(nil, v); !bytes.Equal(got, enc) {
				t.Fatalf("%s cut %d: view encode differs from dense", col.Type(), cut)
			}
		}
		// Decoding appends after existing values and consumes exactly
		// the payload, leaving trailing bytes alone.
		dst := New(col.Type(), 0)
		dst.AppendVector(col.Slice(0, 1))
		n, err := DecodePayload(dst, append(enc, 0xEE), col.Len())
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode n=%d err=%v, want n=%d", col.Type(), n, err, len(enc))
		}
		sameBits(t, Concat(col.Slice(0, 1), col), dst)
	}
}

func TestDecodePayloadTruncation(t *testing.T) {
	for _, col := range codecCols() {
		enc := AppendVectorPayload(nil, col)
		for cut := 0; cut < len(enc); cut++ {
			dst := New(col.Type(), 0)
			dst.AppendVector(col.Slice(0, 2))
			before := dst.Clone()
			n, err := DecodePayload(dst, enc[:cut], col.Len())
			if !errors.Is(err, ErrPayload) || n != 0 {
				t.Fatalf("%s cut %d/%d: n=%d err=%v, want ErrPayload", col.Type(), cut, len(enc), n, err)
			}
			sameBits(t, before, dst)
		}
	}
}

func TestDecodePayloadAbsurdRows(t *testing.T) {
	b := make([]byte, 64)
	for _, typ := range []Type{Int64, Timestamp, Float64, Bool, Str} {
		for _, rows := range []int{-1, 65, 1 << 40, math.MaxInt} {
			dst := New(typ, 0)
			if _, err := DecodePayload(dst, b, rows); !errors.Is(err, ErrPayload) {
				t.Fatalf("%s rows=%d: err=%v, want ErrPayload", typ, rows, err)
			}
			// Nothing was sized off rows: the column never grew.
			if grown := cap(dst.i64) + cap(dst.f64) + cap(dst.str) + cap(dst.bs); grown != 0 {
				t.Fatalf("%s rows=%d: column grew to cap %d", typ, rows, grown)
			}
		}
	}
	if _, err := DecodePayload(New(Type(99), 0), b, 1); !errors.Is(err, ErrPayload) {
		t.Fatalf("unknown type: err=%v", err)
	}
}

// FuzzDecodePayload throws arbitrary bytes, types and row counts at the
// payload decoder that both the wire block and the segment record use.
// Invariants: never panic; an error leaves dst as it was; a success
// consumes at most the input, adds exactly rows values, and re-encodes
// to the consumed bytes (Bool up to its 0/1 normalisation).
func FuzzDecodePayload(f *testing.F) {
	for _, col := range codecCols() {
		f.Add(uint8(col.Type()), uint16(col.Len()), AppendVectorPayload(nil, col))
	}
	f.Add(uint8(Str), uint16(3), []byte{1, 0, 0, 0, 'a', 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(Int64), uint16(0xffff), []byte{})
	f.Fuzz(func(t *testing.T, typ uint8, rows uint16, data []byte) {
		dst := New(Type(typ%5), 0)
		dst.AppendValue(Value{I: 7, F: 7, S: "seed", B: true})
		before := dst.Clone()
		n, err := DecodePayload(dst, data, int(rows))
		if err != nil {
			if !errors.Is(err, ErrPayload) {
				t.Fatalf("error %v does not wrap ErrPayload", err)
			}
			sameBits(t, before, dst)
			return
		}
		if n < 0 || n > len(data) || dst.Len() != 1+int(rows) {
			t.Fatalf("n=%d of %d bytes, %d values for %d rows", n, len(data), dst.Len(), rows)
		}
		re := AppendVectorPayload(nil, dst.Slice(1, dst.Len()))
		if dst.Type() == Bool {
			for i, x := range data[:n] {
				if (x != 0) != (re[i] != 0) {
					t.Fatalf("bool %d: %d re-encoded as %d", i, x, re[i])
				}
			}
		} else if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs from the %d consumed bytes", n)
		}
	})
}
