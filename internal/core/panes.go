package core

import (
	"datacell/internal/algebra"
	"datacell/internal/exec"
	"datacell/internal/plan"
	"datacell/internal/vector"
)

// Matrix panes ("No pane, no gain", Li et al. 2005, applied to the join
// matrix of Fig 3e). Every eviction drops row 0 and column 0 of the
// matrix, so the cell at ring positions (i, j) leaves it with the
// (min(i,j)+1)-th eviction from now: the cells that expire together form a
// pane. A pane-backed scalar aggregate keeps one pre-aggregate per pane in
// a ring of N aligned with the slot rings — a new cell folds its partial
// into pane (paneHead + min(i,j)) mod N, an eviction clears pane paneHead
// and advances the head — and its merge folds the N live panes instead of
// re-aggregating all N² cell partials. Folding needs no inverse, so min and
// max qualify as well as sum (and count, which merges as sum).

// Pane reports whether a runtime built with opts folds scalar aggregate i
// of the join matrix (ip.Panes[i]) through matrix panes and, when it does
// not, the first reason why. Like MergeKernel, the choice follows from the
// plan's shape alone; Baseline is the only switch.
func (ip *IncPlan) Pane(i int, opts Options) (paned bool, reason string) {
	p := &ip.Panes[i]
	switch {
	case opts.Baseline:
		return false, "baseline"
	case ip.Landmark:
		return false, "landmark"
	case p.Typ == vector.Float64:
		// Float + depends on the order of the operands, and float min/max
		// on it for NaN and ±0: only the cell-order concatenation is exact.
		return false, "float"
	case !vector.IntKind(p.Typ):
		return false, "non-integer partial"
	case p.Kind != algebra.AggSum && p.Kind != algebra.AggMin && p.Kind != algebra.AggMax:
		return false, p.Kind.String()
	}
	readers := 0
	for _, in := range ip.Merge {
		for _, r := range in.In {
			if r == p.Cat {
				readers++
			}
		}
	}
	if readers != 1 {
		return false, "another reader"
	}
	return true, ""
}

// paneAgg is the runtime state of one pane-backed scalar aggregate: where
// its partial sits in a cell file and its ring of N pane pre-aggregates,
// indexed like Runtime.paneHead.
type paneAgg struct {
	spec *PaneSpec
	pos  int
	ring []paneVal
	// off retires the aggregate to the instruction path for good: a cell
	// file did not hold a dense vector of the planned type.
	off bool
}

// paneVal is a pre-aggregate of integer partials: a wrapping sum, or a
// min/max that exists once ok.
type paneVal struct {
	v  int64
	ok bool
}

func (a *paneVal) fold(kind algebra.AggKind, x int64) {
	switch {
	case kind == algebra.AggSum:
		a.v += x
	case !a.ok, kind == algebra.AggMin && x < a.v, kind == algebra.AggMax && x > a.v:
		a.v = x
	}
	a.ok = true
}

// initPanes sets up the pane ring of every scalar aggregate over the join
// matrix that qualifies.
func (rt *Runtime) initPanes() {
	ip := rt.ip
	for i := range ip.Panes {
		pos, ok := rt.cellPos[ip.Panes[i].Out]
		if paned, _ := ip.Pane(i, rt.opts); !paned || !ok {
			continue
		}
		p := &paneAgg{spec: &ip.Panes[i], pos: pos, ring: make([]paneVal, ip.N)}
		if rt.paneCat == nil {
			rt.paneCat = map[plan.Reg]*paneAgg{}
		}
		rt.paneCat[p.spec.Cat] = p
		rt.panes = append(rt.panes, p)
	}
}

// expirePanes clears the pane of the cells the current eviction dropped
// from the matrix.
func (rt *Runtime) expirePanes() {
	for _, p := range rt.panes {
		p.ring[rt.paneHead] = paneVal{}
	}
	if rt.paneHead++; rt.paneHead == rt.ip.N {
		rt.paneHead = 0
	}
}

// foldPanes folds the partials of a cell just assigned at ring positions
// (i, j), m = min(i, j), into the pane of the eviction that will drop it.
func (rt *Runtime) foldPanes(m int, file regFile) {
	k := (rt.paneHead + m) % rt.ip.N
	for _, p := range rt.panes {
		if p.off {
			continue
		}
		d := file[p.pos]
		if d.Kind != exec.KindVec || d.Vec.Type() != p.spec.Typ {
			p.off = true
			continue
		}
		for _, x := range d.Vec.Int64s() {
			p.ring[k].fold(p.spec.Kind, x)
		}
	}
}

// total folds the live panes.
func (p *paneAgg) total() paneVal {
	var tot paneVal
	for _, pv := range p.ring {
		if pv.ok {
			tot.fold(p.spec.Kind, pv.v)
		}
	}
	return tot
}

// emit is the aggregate's merged value, exactly as Kind over the
// concatenated cell partials gives it: sum yields one row (0 over no
// rows), min and max yield no row when no cell has one.
func (p *paneAgg) emit() *vector.Vector {
	tot := p.total()
	out := vector.New(p.spec.Typ, 1)
	if tot.ok || p.spec.Kind == algebra.AggSum {
		out.AppendInt64(tot.v)
	}
	return out
}
