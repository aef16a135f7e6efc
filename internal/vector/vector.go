package vector

import "fmt"

// Type enumerates the supported column types.
type Type uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a 64-bit IEEE-754 column.
	Float64
	// Str is a string column.
	Str
	// Bool is a boolean column.
	Bool
	// Timestamp is a microsecond-resolution timestamp stored as int64.
	Timestamp
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Str:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Numeric reports whether the type supports arithmetic.
func (t Type) Numeric() bool { return t == Int64 || t == Float64 || t == Timestamp }

// Sel is a selection vector: a list of row positions into a Vector.
// A nil Sel conventionally means "all rows".
type Sel []int32

// SeqSel returns the identity selection [0, n).
func SeqSel(n int) Sel {
	s := make(Sel, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// Vector is a single typed column. Exactly one of the payload slices is in
// use, determined by typ. Vectors are append-only; Slice returns views that
// share the payload, which is how basic-window splitting avoids copies.
type Vector struct {
	typ Type
	i64 []int64 // Int64 and Timestamp payloads
	f64 []float64
	str []string
	bs  []bool
}

// New returns an empty vector of type t with room for capHint values.
func New(t Type, capHint int) *Vector { return alloc(t, 0, capHint) }

// alloc returns a vector of type t holding n zero values, with room for c.
func alloc(t Type, n, c int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case Int64, Timestamp:
		v.i64 = make([]int64, n, c)
	case Float64:
		v.f64 = make([]float64, n, c)
	case Str:
		v.str = make([]string, n, c)
	case Bool:
		v.bs = make([]bool, n, c)
	}
	return v
}

// FromInt64 wraps vals (without copying) in an Int64 vector.
func FromInt64(vals []int64) *Vector { return &Vector{typ: Int64, i64: vals} }

// FromFloat64 wraps vals (without copying) in a Float64 vector.
func FromFloat64(vals []float64) *Vector { return &Vector{typ: Float64, f64: vals} }

// FromStr wraps vals (without copying) in a Str vector.
func FromStr(vals []string) *Vector { return &Vector{typ: Str, str: vals} }

// FromBool wraps vals (without copying) in a Bool vector.
func FromBool(vals []bool) *Vector { return &Vector{typ: Bool, bs: vals} }

// FromTimestamp wraps micros (without copying) in a Timestamp vector.
func FromTimestamp(micros []int64) *Vector { return &Vector{typ: Timestamp, i64: micros} }

// Type returns the column type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of values.
func (v *Vector) Len() int {
	switch v.typ {
	case Int64, Timestamp:
		return len(v.i64)
	case Float64:
		return len(v.f64)
	case Str:
		return len(v.str)
	case Bool:
		return len(v.bs)
	}
	return 0
}

// Int64s returns the raw int64 payload. It panics for non-integer vectors.
func (v *Vector) Int64s() []int64 {
	if v.typ != Int64 && v.typ != Timestamp {
		panic("vector: Int64s on " + v.typ.String())
	}
	return v.i64
}

// Float64s returns the raw float64 payload. It panics for non-float vectors.
func (v *Vector) Float64s() []float64 {
	if v.typ != Float64 {
		panic("vector: Float64s on " + v.typ.String())
	}
	return v.f64
}

// Strs returns the raw string payload. It panics for non-string vectors.
func (v *Vector) Strs() []string {
	if v.typ != Str {
		panic("vector: Strs on " + v.typ.String())
	}
	return v.str
}

// Bools returns the raw bool payload. It panics for non-bool vectors.
func (v *Vector) Bools() []bool {
	if v.typ != Bool {
		panic("vector: Bools on " + v.typ.String())
	}
	return v.bs
}

// AppendInt64 appends x; the vector must be Int64 or Timestamp.
func (v *Vector) AppendInt64(x int64) { v.i64 = append(v.i64, x) }

// AppendFloat64 appends x; the vector must be Float64.
func (v *Vector) AppendFloat64(x float64) { v.f64 = append(v.f64, x) }

// AppendStr appends x; the vector must be Str.
func (v *Vector) AppendStr(x string) { v.str = append(v.str, x) }

// AppendBool appends x; the vector must be Bool.
func (v *Vector) AppendBool(x bool) { v.bs = append(v.bs, x) }

// AppendInt64s bulk-appends xs; the vector must be Int64 or Timestamp.
func (v *Vector) AppendInt64s(xs []int64) { v.i64 = append(v.i64, xs...) }

// AppendFloat64s bulk-appends xs; the vector must be Float64.
func (v *Vector) AppendFloat64s(xs []float64) { v.f64 = append(v.f64, xs...) }

// AppendStrs bulk-appends xs; the vector must be Str.
func (v *Vector) AppendStrs(xs []string) { v.str = append(v.str, xs...) }

// AppendBools bulk-appends xs; the vector must be Bool.
func (v *Vector) AppendBools(xs []bool) { v.bs = append(v.bs, xs...) }

// AppendValue appends a boxed value, which must match the vector type
// (Int64 values are accepted by Timestamp vectors and vice versa).
func (v *Vector) AppendValue(val Value) {
	switch v.typ {
	case Int64, Timestamp:
		v.i64 = append(v.i64, val.I)
	case Float64:
		v.f64 = append(v.f64, val.F)
	case Str:
		v.str = append(v.str, val.S)
	case Bool:
		v.bs = append(v.bs, val.B)
	}
}

// IntKind reports whether t shares the int64 payload (Int64 or Timestamp);
// the two are interchangeable everywhere values flow, mirroring the boxed
// Value rules.
func IntKind(t Type) bool { return t == Int64 || t == Timestamp }

// AppendVector appends all values of o, which must have the same type
// (Int64 and Timestamp are interchangeable).
func (v *Vector) AppendVector(o *Vector) {
	if o.typ != v.typ && !(IntKind(o.typ) && IntKind(v.typ)) {
		panic(fmt.Sprintf("vector: append %s to %s", o.typ, v.typ))
	}
	switch v.typ {
	case Int64, Timestamp:
		v.i64 = append(v.i64, o.i64...)
	case Float64:
		v.f64 = append(v.f64, o.f64...)
	case Str:
		v.str = append(v.str, o.str...)
	case Bool:
		v.bs = append(v.bs, o.bs...)
	}
}

// Get returns the boxed value at row i.
func (v *Vector) Get(i int) Value {
	switch v.typ {
	case Int64, Timestamp:
		return Value{Typ: v.typ, I: v.i64[i]}
	case Float64:
		return Value{Typ: Float64, F: v.f64[i]}
	case Str:
		return Value{Typ: Str, S: v.str[i]}
	case Bool:
		return Value{Typ: Bool, B: v.bs[i]}
	}
	panic("vector: Get on invalid type")
}

// Slice returns a zero-copy view of rows [lo, hi). Appending to the view is
// not allowed (it would clobber the parent); callers treat views as
// read-only, which the algebra operators do.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{typ: v.typ}
	switch v.typ {
	case Int64, Timestamp:
		out.i64 = v.i64[lo:hi:hi]
	case Float64:
		out.f64 = v.f64[lo:hi:hi]
	case Str:
		out.str = v.str[lo:hi:hi]
	case Bool:
		out.bs = v.bs[lo:hi:hi]
	}
	return out
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	out := New(v.typ, v.Len())
	out.AppendVector(v)
	return out
}

// Take materializes the rows named by sel into a fresh vector. A nil sel
// copies the whole column.
func (v *Vector) Take(sel Sel) *Vector {
	if sel == nil {
		return v.Clone()
	}
	out := alloc(v.typ, len(sel), len(sel))
	out.gather(0, v, sel, 0)
	return out
}

// gather writes src's rows sel[i]-base to v's rows at+i. The vectors share
// a payload type and v has room.
func (v *Vector) gather(at int, src *Vector, sel Sel, base int32) {
	switch v.typ {
	case Int64, Timestamp:
		gatherInto(v.i64[at:], src.i64, sel, base)
	case Float64:
		gatherInto(v.f64[at:], src.f64, sel, base)
	case Str:
		gatherInto(v.str[at:], src.str, sel, base)
	case Bool:
		gatherInto(v.bs[at:], src.bs, sel, base)
	}
}

func gatherInto[T any](dst, src []T, sel Sel, base int32) {
	dst = dst[:len(sel)]
	for i, s := range sel {
		dst[i] = src[s-base]
	}
}

// Concat materializes the concatenation of vs into one fresh vector.
// All inputs must share a type; Concat of zero inputs panics.
func Concat(vs ...*Vector) *Vector {
	if len(vs) == 0 {
		panic("vector: Concat of nothing")
	}
	n := 0
	for _, v := range vs {
		n += v.Len()
	}
	out := New(vs[0].typ, n)
	for _, v := range vs {
		out.AppendVector(v)
	}
	return out
}

// Truncate drops all but the first n values in place. Dropped string
// headers are zeroed so a truncated-and-reused vector (Batch.Reset) does
// not pin the previous fill's strings.
func (v *Vector) Truncate(n int) {
	switch v.typ {
	case Int64, Timestamp:
		v.i64 = v.i64[:n]
	case Float64:
		v.f64 = v.f64[:n]
	case Str:
		tail := v.str[n:]
		for i := range tail {
			tail[i] = ""
		}
		v.str = v.str[:n]
	case Bool:
		v.bs = v.bs[:n]
	}
}

// DeleteHead removes the first n values in place (used when stream tuples
// expire from a basket). It shifts the payload down to keep it dense.
func (v *Vector) DeleteHead(n int) {
	switch v.typ {
	case Int64, Timestamp:
		v.i64 = v.i64[:copy(v.i64, v.i64[n:])]
	case Float64:
		v.f64 = v.f64[:copy(v.f64, v.f64[n:])]
	case Str:
		v.str = v.str[:copy(v.str, v.str[n:])]
	case Bool:
		v.bs = v.bs[:copy(v.bs, v.bs[n:])]
	}
}

// String renders a short, human-readable preview of the column.
func (v *Vector) String() string {
	const maxShow = 8
	n := v.Len()
	s := fmt.Sprintf("%s[%d]{", v.typ, n)
	for i := 0; i < n && i < maxShow; i++ {
		if i > 0 {
			s += " "
		}
		s += v.Get(i).String()
	}
	if n > maxShow {
		s += " ..."
	}
	return s + "}"
}
