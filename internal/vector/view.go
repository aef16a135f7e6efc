package vector

// View is a read-only, possibly discontiguous column: an ordered sequence
// of Vector parts that together form one logical run of values. It is the
// unit the basket segment store hands to query execution — a window that
// lies inside a single segment is a one-part view (zero copies), a window
// spanning a segment boundary carries one part per segment.
//
// Views never own payloads; they alias the (immutable, sealed or
// append-only tail) segments they were cut from, so they stay valid after
// the store seals or reclaims segments — the parts keep the backing arrays
// alive.
type View struct {
	typ   Type
	parts []*Vector
	n     int
}

// NewView builds a view of type t over the given parts (empty parts are
// allowed and contribute nothing). All parts must have type t (Int64 and
// Timestamp are interchangeable, as everywhere). The parts slice is built
// in one pass — Append's copy-on-extend would make many-part views
// quadratic.
func NewView(t Type, parts ...*Vector) View {
	v := View{typ: t, parts: make([]*Vector, 0, len(parts))}
	for _, p := range parts {
		if p.typ != t && !(IntKind(p.typ) && IntKind(t)) {
			panic("vector: view part type " + p.typ.String() + " into " + t.String())
		}
		if p.Len() == 0 {
			continue
		}
		v.parts = append(v.parts, p)
		v.n += p.Len()
	}
	return v
}

// ViewOf wraps a single vector in a one-part view.
func ViewOf(p *Vector) View { return NewView(p.Type(), p) }

// Append returns v extended by one more part. Zero-length parts are
// dropped so Parts() never forces callers to skip empties.
func (v View) Append(p *Vector) View {
	if p.typ != v.typ && !(IntKind(p.typ) && IntKind(v.typ)) {
		panic("vector: view part type " + p.typ.String() + " into " + v.typ.String())
	}
	if p.Len() == 0 {
		return v
	}
	return View{typ: v.typ, parts: append(v.parts[:len(v.parts):len(v.parts)], p), n: v.n + p.Len()}
}

// Type returns the column type of the view.
func (v View) Type() Type { return v.typ }

// Len returns the total number of values across all parts.
func (v View) Len() int { return v.n }

// Parts returns the underlying segment slices, oldest first. Callers must
// treat them as read-only.
func (v View) Parts() []*Vector { return v.parts }

// Contiguous reports whether the view can be read as a single vector
// without materialization (zero or one part).
func (v View) Contiguous() bool { return len(v.parts) <= 1 }

// Vector flattens the view into one vector: zero-copy when the view is
// contiguous, a materialized concatenation when it spans segment
// boundaries.
func (v View) Vector() *Vector {
	switch len(v.parts) {
	case 0:
		return New(v.typ, 0)
	case 1:
		return v.parts[0]
	}
	return Concat(v.parts...)
}

// Materialize flattens the view into a freshly allocated vector that
// shares no storage with the underlying segments. Use it (instead of
// Vector, which aliases a single part) for values that must outlive
// segment reclamation — e.g. basic-window slot state.
func (v View) Materialize() *Vector {
	out := New(v.typ, v.n)
	for _, p := range v.parts {
		out.AppendVector(p)
	}
	return out
}

// ForEachPart calls f once per non-empty part, oldest first, passing the
// logical row offset of the part's first value. It is the part-iteration
// primitive the segment-aware operator kernels are built on: operators
// process each contiguous part with their dense fast path and offset the
// produced row ids by base.
func (v View) ForEachPart(f func(base int, p *Vector)) {
	base := 0
	for _, p := range v.parts {
		f(base, p)
		base += p.Len()
	}
}

// Take materializes the rows of v named by sel (logical row ids) into a
// fresh vector; a nil sel copies the whole view. Ascending selections —
// the output of every filter — are gathered part by part straight into
// the one output, so a boundary-spanning view is never flattened just to
// project the surviving rows. Unsorted selections fall back to flattening.
func (v View) Take(sel Sel) *Vector {
	if sel == nil {
		return v.Materialize()
	}
	if len(v.parts) <= 1 {
		return v.Vector().Take(sel)
	}
	for i := 1; i < len(sel); i++ {
		if sel[i] < sel[i-1] {
			return v.Vector().Take(sel)
		}
	}
	out := alloc(v.typ, len(sel), len(sel))
	pi, base := 0, 0
	for at := 0; at < len(sel); {
		for int(sel[at])-base >= v.parts[pi].Len() {
			base += v.parts[pi].Len()
			pi++
		}
		end, limit := at+1, int32(base+v.parts[pi].Len())
		for end < len(sel) && sel[end] < limit {
			end++
		}
		out.gather(at, v.parts[pi], sel[at:end], int32(base))
		at = end
	}
	return out
}

// Slice returns the sub-view of rows [lo, hi).
func (v View) Slice(lo, hi int) View {
	if lo < 0 || hi < lo || hi > v.n {
		panic("vector: view slice out of range")
	}
	out := View{typ: v.typ}
	skip := lo
	want := hi - lo
	for _, p := range v.parts {
		if want == 0 {
			break
		}
		if skip >= p.Len() {
			skip -= p.Len()
			continue
		}
		take := p.Len() - skip
		if take > want {
			take = want
		}
		out = out.Append(p.Slice(skip, skip+take))
		skip = 0
		want -= take
	}
	return out
}

// Get returns the boxed value at logical row i.
func (v View) Get(i int) Value {
	for _, p := range v.parts {
		if i < p.Len() {
			return p.Get(i)
		}
		i -= p.Len()
	}
	panic("vector: view index out of range")
}

// Cols flattens a slice of views into per-column vectors (see View.Vector).
func Cols(views []View) []*Vector {
	out := make([]*Vector, len(views))
	for i, v := range views {
		out[i] = v.Vector()
	}
	return out
}

// Views wraps each column of cols in a one-part view — the adapter between
// contiguous-column call sites and view-shaped APIs.
func Views(cols []*Vector) []View {
	out := make([]View, len(cols))
	for i, c := range cols {
		out[i] = ViewOf(c)
	}
	return out
}
