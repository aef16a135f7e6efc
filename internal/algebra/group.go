package algebra

import (
	"sync"

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
// deterministic output ordering. A single Int64/Timestamp key groups on a
// pooled GroupTable, so the only per-call allocations are the returned
// ids and representatives.
func Group(keys []*vector.Vector, sel vector.Sel) *Groups {
	return group(keys, sel, true)
}

// GroupMap is Group as the seed ran it: a single Int64/Timestamp key
// groups on a fresh map per call. Ids and representatives are identical
// to Group's. Options.Baseline's merge stage re-groups through it, so the
// seed-style serial merge that anchors the merge speedup gates keeps the
// seed's cost.
func GroupMap(keys []*vector.Vector, sel vector.Sel) *Groups {
	return group(keys, sel, false)
}

func group(keys []*vector.Vector, sel vector.Sel, pooled bool) *Groups {
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
			if !pooled {
				groupInt64Map(g, k.Int64s(), sel)
				return g
			}
			tbl := groupTables.Get().(*GroupTable)
			tbl.Reset(n)
			groupInt64(g, tbl, k.Int64s(), sel)
			groupTables.Put(tbl)
			return g
		}
	}
	groupGeneric(g, keys, sel)
	return g
}

// groupTables holds the tables behind Group's int64 path. Every
// per-basic-window fragment, instruction merge and re-evaluation groups
// through it, from whichever goroutine runs them.
var groupTables = sync.Pool{New: func() any { return NewGroupTable() }}

// groupInt64 groups vals (restricted to sel) on tbl, which the caller has
// Reset.
func groupInt64(g *Groups, tbl *GroupTable, vals []int64, sel vector.Sel) {
	visit := func(pos int32, v int64) {
		id, found := tbl.insertInt64(v, int32(g.K))
		if !found {
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

// groupInt64Map is groupInt64 on a throwaway map: GroupMap's int64 path.
func groupInt64Map(g *Groups, vals []int64, sel vector.Sel) {
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
