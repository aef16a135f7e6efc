package vector

import (
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Int64: "BIGINT", Float64: "DOUBLE", Str: "VARCHAR", Bool: "BOOLEAN", Timestamp: "TIMESTAMP",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestNumeric(t *testing.T) {
	if !Int64.Numeric() || !Float64.Numeric() || !Timestamp.Numeric() {
		t.Error("numeric types not reported numeric")
	}
	if Str.Numeric() || Bool.Numeric() {
		t.Error("non-numeric types reported numeric")
	}
}

func TestAppendAndGetAllTypes(t *testing.T) {
	vi := New(Int64, 0)
	vi.AppendInt64(7)
	vi.AppendValue(IntValue(-3))
	if vi.Len() != 2 || vi.Get(0).I != 7 || vi.Get(1).I != -3 {
		t.Errorf("int vector contents wrong: %v", vi)
	}

	vf := New(Float64, 0)
	vf.AppendFloat64(1.5)
	vf.AppendValue(FloatValue(-2.25))
	if vf.Len() != 2 || vf.Get(0).F != 1.5 || vf.Get(1).F != -2.25 {
		t.Errorf("float vector contents wrong: %v", vf)
	}

	vs := New(Str, 0)
	vs.AppendStr("a")
	vs.AppendValue(StrValue("b"))
	if vs.Len() != 2 || vs.Get(0).S != "a" || vs.Get(1).S != "b" {
		t.Errorf("str vector contents wrong: %v", vs)
	}

	vb := New(Bool, 0)
	vb.AppendBool(true)
	vb.AppendValue(BoolValue(false))
	if vb.Len() != 2 || !vb.Get(0).B || vb.Get(1).B {
		t.Errorf("bool vector contents wrong: %v", vb)
	}

	vt := New(Timestamp, 0)
	vt.AppendInt64(123456)
	if vt.Len() != 1 || vt.Get(0).I != 123456 || vt.Get(0).Typ != Timestamp {
		t.Errorf("timestamp vector contents wrong: %v", vt)
	}
}

func TestFromWrappers(t *testing.T) {
	if v := FromInt64([]int64{1, 2}); v.Len() != 2 || v.Type() != Int64 {
		t.Error("FromInt64 wrong")
	}
	if v := FromFloat64([]float64{1}); v.Len() != 1 || v.Type() != Float64 {
		t.Error("FromFloat64 wrong")
	}
	if v := FromStr([]string{"x"}); v.Len() != 1 || v.Type() != Str {
		t.Error("FromStr wrong")
	}
	if v := FromBool([]bool{true}); v.Len() != 1 || v.Type() != Bool {
		t.Error("FromBool wrong")
	}
	if v := FromTimestamp([]int64{5}); v.Len() != 1 || v.Type() != Timestamp {
		t.Error("FromTimestamp wrong")
	}
}

func TestRawAccessorsPanicOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int64s on Float64 vector did not panic")
		}
	}()
	FromFloat64([]float64{1}).Int64s()
}

func TestSliceIsView(t *testing.T) {
	v := FromInt64([]int64{0, 1, 2, 3, 4, 5})
	s := v.Slice(2, 5)
	if s.Len() != 3 || s.Get(0).I != 2 || s.Get(2).I != 4 {
		t.Fatalf("slice contents wrong: %v", s)
	}
	// Views share memory with the parent.
	v.Int64s()[3] = 99
	if s.Get(1).I != 99 {
		t.Error("slice is not a view of the parent")
	}
}

func TestCloneIsDeep(t *testing.T) {
	v := FromStr([]string{"a", "b"})
	c := v.Clone()
	v.Strs()[0] = "z"
	if c.Get(0).S != "a" {
		t.Error("clone shares memory with original")
	}
}

func TestTake(t *testing.T) {
	v := FromInt64([]int64{10, 20, 30, 40})
	got := v.Take(Sel{3, 1, 1})
	want := []int64{40, 20, 20}
	for i, w := range want {
		if got.Get(i).I != w {
			t.Errorf("Take[%d] = %d, want %d", i, got.Get(i).I, w)
		}
	}
	if all := v.Take(nil); all.Len() != 4 {
		t.Error("Take(nil) should copy all rows")
	}

	vf := FromFloat64([]float64{1, 2, 3})
	if got := vf.Take(Sel{2, 0}); got.Get(0).F != 3 || got.Get(1).F != 1 {
		t.Error("float Take wrong")
	}
	vs := FromStr([]string{"a", "b", "c"})
	if got := vs.Take(Sel{1}); got.Get(0).S != "b" {
		t.Error("str Take wrong")
	}
	vb := FromBool([]bool{true, false})
	if got := vb.Take(Sel{1, 0}); got.Get(0).B || !got.Get(1).B {
		t.Error("bool Take wrong")
	}
}

// TestTakeAllocs pins Take to two allocations — the output header and
// its one payload — for every column type, and for an ascending Take
// across the parts of a view.
func TestTakeAllocs(t *testing.T) {
	sel := Sel{0, 2, 3, 5, 7}
	for _, v := range []*Vector{
		FromInt64([]int64{1, 2, 3, 4, 5, 6, 7, 8}),
		FromFloat64([]float64{1, 2, 3, 4, 5, 6, 7, 8}),
		FromStr([]string{"a", "b", "c", "d", "e", "f", "g", "h"}),
		FromBool([]bool{true, false, true, false, true, false, true, false}),
		FromTimestamp([]int64{1, 2, 3, 4, 5, 6, 7, 8}),
	} {
		if got := testing.AllocsPerRun(20, func() { v.Take(sel) }); got != 2 {
			t.Errorf("%s Take: %v allocs, want 2", v.Type(), got)
		}
		view := NewView(v.Type(), v.Slice(0, 3), v.Slice(3, 4), v.Slice(4, 8))
		if got := testing.AllocsPerRun(20, func() { view.Take(sel) }); got != 2 {
			t.Errorf("%s View.Take over 3 parts: %v allocs, want 2", v.Type(), got)
		}
		want, got := v.Take(sel), view.Take(sel)
		for i := range sel {
			if want.Get(i) != got.Get(i) {
				t.Fatalf("%s row %d: view Take %v, vector Take %v", v.Type(), i, got.Get(i), want.Get(i))
			}
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromInt64([]int64{1, 2})
	b := FromInt64([]int64{3})
	c := Concat(a, b)
	if c.Len() != 3 || c.Get(2).I != 3 {
		t.Errorf("concat wrong: %v", c)
	}
	// Concat result must not alias its inputs.
	a.Int64s()[0] = 100
	if c.Get(0).I != 1 {
		t.Error("concat aliases input")
	}
}

func TestConcatEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Concat() did not panic")
		}
	}()
	Concat()
}

func TestAppendVectorTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendVector with mismatched types did not panic")
		}
	}()
	FromInt64(nil).AppendVector(FromStr([]string{"x"}))
}

func TestTruncateAndDeleteHead(t *testing.T) {
	v := FromInt64([]int64{1, 2, 3, 4, 5})
	v.DeleteHead(2)
	if v.Len() != 3 || v.Get(0).I != 3 {
		t.Errorf("DeleteHead wrong: %v", v)
	}
	v.Truncate(1)
	if v.Len() != 1 || v.Get(0).I != 3 {
		t.Errorf("Truncate wrong: %v", v)
	}

	for _, typ := range []Type{Float64, Str, Bool, Timestamp} {
		w := New(typ, 0)
		for i := 0; i < 4; i++ {
			w.AppendValue(zeroValueFor(typ, i))
		}
		w.DeleteHead(1)
		w.Truncate(2)
		if w.Len() != 2 {
			t.Errorf("%s delete/truncate wrong len %d", typ, w.Len())
		}
	}
}

func zeroValueFor(t Type, i int) Value {
	switch t {
	case Float64:
		return FloatValue(float64(i))
	case Str:
		return StrValue("s")
	case Bool:
		return BoolValue(i%2 == 0)
	default:
		return Value{Typ: t, I: int64(i)}
	}
}

func TestSeqSel(t *testing.T) {
	s := SeqSel(4)
	for i, x := range s {
		if int(x) != i {
			t.Fatalf("SeqSel[%d]=%d", i, x)
		}
	}
	if len(SeqSel(0)) != 0 {
		t.Error("SeqSel(0) not empty")
	}
}

func TestStringPreview(t *testing.T) {
	v := FromInt64([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	s := v.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String preview too short: %q", s)
	}
}

// Property: DeleteHead(k) followed by reading is the same as slicing off
// the first k values.
func TestDeleteHeadEquivalentToSliceProperty(t *testing.T) {
	f := func(vals []int64, kRaw uint8) bool {
		k := int(kRaw)
		if k > len(vals) {
			k = len(vals)
		}
		v := FromInt64(append([]int64(nil), vals...))
		v.DeleteHead(k)
		if v.Len() != len(vals)-k {
			return false
		}
		for i := 0; i < v.Len(); i++ {
			if v.Get(i).I != vals[k+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Concat(a.Slice(0,k), a.Slice(k,n)) reproduces a.
func TestSplitConcatRoundTripProperty(t *testing.T) {
	f := func(vals []int64, kRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		k := int(kRaw) % len(vals)
		v := FromInt64(vals)
		c := Concat(v.Slice(0, k), v.Slice(k, len(vals)))
		if c.Len() != len(vals) {
			return false
		}
		for i := range vals {
			if c.Get(i).I != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
