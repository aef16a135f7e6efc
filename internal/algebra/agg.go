package algebra

import (
	"math"

	"datacell/internal/vector"
)

// AggKind enumerates the aggregate functions.
type AggKind uint8

// Aggregate kinds. Avg never reaches the executor: the planner lowers it to
// Sum/Count/Div (the paper's "expanding replication", Fig 3c).
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "?"
}

// MergeKind returns the compensating aggregate applied after concatenating
// partial results (the paper's "concatenation plus compensation"): counts
// merge by summing, everything else re-applies itself.
func (k AggKind) MergeKind() AggKind {
	if k == AggCount {
		return AggSum
	}
	return k
}

// Sum computes the global sum of v restricted to sel. Integer inputs yield
// an Int64 value, floats a Float64. An empty input sums to zero.
func Sum(v *vector.Vector, sel vector.Sel) vector.Value {
	switch v.Type() {
	case vector.Int64, vector.Timestamp:
		vals := v.Int64s()
		var s int64
		if sel == nil {
			for _, x := range vals {
				s += x
			}
		} else {
			for _, i := range sel {
				s += vals[i]
			}
		}
		return vector.IntValue(s)
	case vector.Float64:
		vals := v.Float64s()
		var s float64
		if sel == nil {
			for _, x := range vals {
				s += x
			}
		} else {
			for _, i := range sel {
				s += vals[i]
			}
		}
		return vector.FloatValue(s)
	}
	panic("algebra: Sum on " + v.Type().String())
}

// Count returns the number of rows of v restricted to sel.
func Count(v *vector.Vector, sel vector.Sel) vector.Value {
	if sel != nil {
		return vector.IntValue(int64(len(sel)))
	}
	return vector.IntValue(int64(v.Len()))
}

// Min returns the minimum of v restricted to sel. ok is false on empty
// input (SQL would yield NULL; callers skip empty partials instead).
func Min(v *vector.Vector, sel vector.Sel) (vector.Value, bool) {
	return extreme(v, sel, true)
}

// Max returns the maximum of v restricted to sel; ok is false on empty
// input.
func Max(v *vector.Vector, sel vector.Sel) (vector.Value, bool) {
	return extreme(v, sel, false)
}

func extreme(v *vector.Vector, sel vector.Sel, wantMin bool) (vector.Value, bool) {
	n := v.Len()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return vector.Value{}, false
	}
	get := func(i int) vector.Value {
		if sel != nil {
			return v.Get(int(sel[i]))
		}
		return v.Get(i)
	}
	switch v.Type() {
	case vector.Int64, vector.Timestamp:
		vals := v.Int64s()
		var best int64
		if sel == nil {
			best = vals[0]
			for _, x := range vals[1:] {
				if (wantMin && x < best) || (!wantMin && x > best) {
					best = x
				}
			}
		} else {
			best = vals[sel[0]]
			for _, i := range sel[1:] {
				x := vals[i]
				if (wantMin && x < best) || (!wantMin && x > best) {
					best = x
				}
			}
		}
		return vector.Value{Typ: v.Type(), I: best}, true
	case vector.Float64:
		vals := v.Float64s()
		best := math.Inf(1)
		if !wantMin {
			best = math.Inf(-1)
		}
		if sel == nil {
			for _, x := range vals {
				if (wantMin && x < best) || (!wantMin && x > best) {
					best = x
				}
			}
		} else {
			for _, i := range sel {
				x := vals[i]
				if (wantMin && x < best) || (!wantMin && x > best) {
					best = x
				}
			}
		}
		return vector.FloatValue(best), true
	}
	// Generic path for strings/bools.
	best := get(0)
	for i := 1; i < n; i++ {
		x := get(i)
		if (wantMin && x.Less(best)) || (!wantMin && best.Less(x)) {
			best = x
		}
	}
	return best, true
}

// SumView computes the global sum of a possibly multi-part view, one dense
// part at a time — the segment-aware form of Sum, so a window spanning
// basket segment boundaries is aggregated without a contiguous copy.
func SumView(v vector.View) vector.Value {
	if vector.IntKind(v.Type()) {
		var s int64
		for _, p := range v.Parts() {
			s += Sum(p, nil).I
		}
		return vector.IntValue(s)
	}
	var s float64
	for _, p := range v.Parts() {
		s += Sum(p, nil).F
	}
	return vector.FloatValue(s)
}

// MinView returns the minimum across all parts of a view; ok is false on an
// empty view.
func MinView(v vector.View) (vector.Value, bool) { return extremeView(v, true) }

// MaxView returns the maximum across all parts of a view; ok is false on an
// empty view.
func MaxView(v vector.View) (vector.Value, bool) { return extremeView(v, false) }

func extremeView(v vector.View, wantMin bool) (vector.Value, bool) {
	var best vector.Value
	found := false
	for _, p := range v.Parts() {
		x, ok := extreme(p, nil, wantMin)
		if !ok {
			continue
		}
		if !found || (wantMin && x.Less(best)) || (!wantMin && best.Less(x)) {
			best = x
			found = true
		}
	}
	return best, found
}

// GroupedAgg computes one aggregate per group. v is the value column
// (ignored for AggCount), sel restricts the rows in the same order Group
// visited them, and g holds the group assignment. The result vector has
// g.K entries indexed by group id. Min/Max of an empty group cannot occur:
// every group has at least one member by construction.
func GroupedAgg(kind AggKind, v *vector.Vector, sel vector.Sel, g *Groups) *vector.Vector {
	switch kind {
	case AggCount:
		counts := make([]int64, g.K)
		for _, id := range g.IDs {
			counts[id]++
		}
		return vector.FromInt64(counts)
	case AggSum:
		return groupedSum(v, sel, g)
	case AggMin, AggMax:
		return groupedExtreme(kind == AggMin, v, sel, g)
	}
	panic("algebra: GroupedAgg " + kind.String())
}

func groupedSum(v *vector.Vector, sel vector.Sel, g *Groups) *vector.Vector {
	switch v.Type() {
	case vector.Int64, vector.Timestamp:
		vals := v.Int64s()
		sums := make([]int64, g.K)
		if sel == nil {
			for row, id := range g.IDs {
				sums[id] += vals[row]
			}
		} else {
			for row, id := range g.IDs {
				sums[id] += vals[sel[row]]
			}
		}
		return vector.FromInt64(sums)
	case vector.Float64:
		vals := v.Float64s()
		sums := make([]float64, g.K)
		if sel == nil {
			for row, id := range g.IDs {
				sums[id] += vals[row]
			}
		} else {
			for row, id := range g.IDs {
				sums[id] += vals[sel[row]]
			}
		}
		return vector.FromFloat64(sums)
	}
	panic("algebra: grouped sum on " + v.Type().String())
}

func groupedExtreme(wantMin bool, v *vector.Vector, sel vector.Sel, g *Groups) *vector.Vector {
	out := vector.New(v.Type(), g.K)
	initialized := make([]bool, g.K)
	boxed := make([]vector.Value, g.K)
	for row, id := range g.IDs {
		pos := row
		if sel != nil {
			pos = int(sel[row])
		}
		x := v.Get(pos)
		if !initialized[id] {
			boxed[id] = x
			initialized[id] = true
			continue
		}
		if (wantMin && x.Less(boxed[id])) || (!wantMin && boxed[id].Less(x)) {
			boxed[id] = x
		}
	}
	for _, val := range boxed {
		out.AppendValue(val)
	}
	return out
}
