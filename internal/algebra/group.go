package algebra

import (
	"datacell/internal/vector"
)

// Groups is the result of a grouping: for every input row (in selection
// order) IDs holds its dense group id, K is the number of distinct groups
// and Repr selects, for each group id, the input row position of the first
// member (used to fetch the group-by key values).
type Groups struct {
	IDs  []int32
	K    int
	Repr vector.Sel
}

// Len returns the number of grouped rows.
func (g *Groups) Len() int { return len(g.IDs) }

// Group computes dense group ids over one or more key columns. All key
// columns must have equal length; sel restricts the rows considered (nil =
// all). Rows are visited in selection order, so group ids are assigned in
// first-appearance order — a property the incremental merge relies on for
// deterministic output ordering.
func Group(keys []*vector.Vector, sel vector.Sel) *Groups {
	if len(keys) == 0 {
		panic("algebra: Group with no keys")
	}
	n := keys[0].Len()
	if sel != nil {
		n = len(sel)
	}
	g := &Groups{IDs: make([]int32, 0, n)}
	if len(keys) == 1 {
		k := keys[0]
		if k.Type() == vector.Int64 || k.Type() == vector.Timestamp {
			groupInt64(g, k.Int64s(), sel)
			return g
		}
	}
	groupGeneric(g, keys, sel)
	return g
}

func groupInt64(g *Groups, vals []int64, sel vector.Sel) {
	seen := make(map[int64]int32, 64)
	visit := func(pos int32, v int64) {
		id, ok := seen[v]
		if !ok {
			id = int32(g.K)
			seen[v] = id
			g.K++
			g.Repr = append(g.Repr, pos)
		}
		g.IDs = append(g.IDs, id)
	}
	if sel == nil {
		for i, v := range vals {
			visit(int32(i), v)
		}
	} else {
		for _, i := range sel {
			visit(i, vals[i])
		}
	}
}

// genericKey encodes the key values of one row as a collision-free string,
// the key form of Group's generic (multi-column / non-integer) path.
func genericKey(keys []*vector.Vector, pos int32) string {
	s := ""
	for _, k := range keys {
		s += k.Get(int(pos)).String()
		s += "\x00"
	}
	return s
}

func groupGeneric(g *Groups, keys []*vector.Vector, sel vector.Sel) {
	seen := make(map[string]int32, 64)
	visit := func(pos int32) {
		ks := genericKey(keys, pos)
		id, ok := seen[ks]
		if !ok {
			id = int32(g.K)
			seen[ks] = id
			g.K++
			g.Repr = append(g.Repr, pos)
		}
		g.IDs = append(g.IDs, id)
	}
	if sel == nil {
		n := keys[0].Len()
		for i := 0; i < n; i++ {
			visit(int32(i))
		}
	} else {
		for _, i := range sel {
			visit(i)
		}
	}
}

// Distinct returns a selection of the first occurrence of each distinct
// value combination of keys, restricted to sel. It is Group's Repr.
func Distinct(keys []*vector.Vector, sel vector.Sel) vector.Sel {
	return Group(keys, sel).Repr
}
