package core

import (
	"fmt"
	"slices"
	"time"

	"datacell/internal/algebra"
	"datacell/internal/exec"
	"datacell/internal/plan"
	"datacell/internal/vector"
)

// Window-level join index (Kang, Naughton & Viglas, ICDE 2003; Golab &
// Özsu, VLDB 2003), folded into the matrix panes. When the cell stage is
// the join followed only by takes of slot columns through its selections
// and count/sum/min/max over those takes, and every such aggregate folds
// through panes, a cell's partials are folds of per-pair values, and
// integer folds do not depend on their order. The runtime then keeps no
// cells and builds no per-basic-window tables: each join side keeps one
// chained hash index over the rows of its live basic windows, and each
// new row probes the other side's index once. A hit pairs left ring
// position i with right position j, so its pairs are rows of cell (i, j)
// and fold straight into that cell's pane, (paneHead + min(i, j)) mod N.
// The index holds one record per key and basic window, its rows
// pre-aggregated, so a hit folds all the pairs a probing row makes with
// one basic window at once: count adds the rows, a sum over the index
// side adds their sum, one over the probing side its value times the rows
// (a wrapping product is the wrapping sum of the copies), min and max
// fold the record's extreme or the probing value.
//
// One slide, after the panes expired: insert the new right rows, probe
// the right index with the new left rows, probe the left index with the
// new right rows, insert the new left rows. The new right rows thus meet
// the new left basic window exactly once, through the first probe.

// indexFold is one matrix aggregate as the index folds it: pane is its
// ip.Panes entry; count folds the pairs, sum/min/max fold slot column col
// of join side side (0 left, 1 right).
type indexFold struct {
	pane int
	kind algebra.AggKind
	side int
	col  plan.Reg
}

// JoinIndex reports whether a runtime built with opts evaluates the join
// matrix through the window-level join index and, when it does not, the
// first reason why. Like Pane, the choice follows from the plan's shape
// alone. The shapes it accepts cannot raise in the cell stage, so the
// index path never fails a slide.
func (ip *IncPlan) JoinIndex(opts Options) (ok bool, reason string) {
	_, reason = ip.indexFolds(opts)
	return reason == "", reason
}

// indexFolds lists the folds of an index-eligible plan, in CellRegs order,
// or the reason the plan is not eligible.
func (ip *IncPlan) indexFolds(opts Options) ([]indexFold, string) {
	j := ip.Join
	switch {
	case opts.Baseline:
		return nil, "baseline"
	case ip.Landmark:
		return nil, "landmark"
	case j == nil:
		return nil, "no stream-stream join"
	case !j.IntKeys:
		return nil, "non-integer join key"
	case j.At != 0:
		return nil, "cell work before the join"
	}
	// side is the join side whose selection a take goes through.
	side := map[plan.Reg]int{j.OutL: 0, j.OutR: 1}
	takes := map[plan.Reg]indexFold{} // take output -> its side and column
	aggs := map[plan.Reg]indexFold{}
	for _, in := range ip.Cell[j.At+1:] {
		if in.Op == plan.OpTake && len(in.In) == 2 {
			if k, ok := side[in.In[1]]; ok && slices.Contains(ip.SlotRegs[ip.CellSources[k]], in.In[0]) {
				takes[in.Out[0]] = indexFold{side: k, col: in.In[0]}
				continue
			}
		}
		if in.Op == plan.OpAgg && len(in.In) == 1 {
			f, ok := takes[in.In[0]]
			switch in.Agg {
			case algebra.AggCount, algebra.AggSum, algebra.AggMin, algebra.AggMax:
				if ok {
					f.kind = in.Agg
					aggs[in.Out[0]] = f
					continue
				}
			}
		}
		return nil, in.Op.String() + " after the join"
	}
	var folds []indexFold
	for _, r := range ip.CellRegs {
		f, ok := aggs[r]
		if f.pane = slices.IndexFunc(ip.Panes, func(p PaneSpec) bool { return p.Out == r }); !ok || f.pane < 0 {
			return nil, fmt.Sprintf("join rows r%d", r)
		}
		if paned, why := ip.Pane(f.pane, opts); !paned {
			return nil, fmt.Sprintf("r%d %s not paned (%s)", r, ip.Panes[f.pane].Kind, why)
		}
		folds = append(folds, f)
	}
	return folds, ""
}

// joinIndex is the runtime state of the window-level join index.
type joinIndex struct {
	sides [2]indexSide
	folds []hitFold
	// keyPos are the slot positions of the two join keys.
	keyPos [2]int
	// seq is the absolute sequence number the next basic window of each
	// side gets.
	seq [2]int64
	// cur holds, per side, the new basic window's folded value columns
	// (aligned with indexSide.cols) while a slide probes and inserts.
	cur [2][][]int64
}

// hitFold folds one join hit into a pane ring. side < 0 is a count: it
// folds the pairs the hit stands for. Otherwise the fold reads column col
// of side's new rows when that side probes, and the record's
// pre-aggregate agg when that side is the index.
type hitFold struct {
	ring []paneVal
	kind algebra.AggKind
	side int
	col  int
	agg  int
}

// indexSide is one join side's chained hash index over the rows of its
// live basic windows, one record per (key, basic window): the rows of a
// basic window that share a key fold into one record at insert time, so
// a probe meets each live basic window holding its key once, however many
// rows there share it. Record r has key key[r], the absolute sequence
// number seq[r] of its basic window, its row count cnt[r] and, per
// aggregate a (kind aggKind[a] over column aggCol[a] of the side's folded
// columns, slot positions cols), the pre-aggregate aggs[a][r] — values
// are copied in, so a hit never reads a slot file. heads[b] is bucket b's
// newest record plus one (0 = empty) and next[r] the next older record of
// r's bucket plus one: a chain runs newest first, so a probe stops at the
// first record below floor, the first live one. Expiry only advances
// floor; dead records are dropped when they outnumber the live ones.
type indexSide struct {
	heads   []int32
	next    []int32
	key     []int64
	seq     []int64
	cnt     []int64
	aggs    [][]int64
	aggKind []algebra.AggKind
	aggCol  []int
	cols    []int
	floor   int
}

// expire advances floor past the records of basic windows numbered below
// first.
func (x *indexSide) expire(first int64) {
	for x.floor < len(x.key) && x.seq[x.floor] < first {
		x.floor++
	}
}

// insert adds one basic window's rows: keys, and per folded column the
// values aligned with them.
func (x *indexSide) insert(keys []int64, cols [][]int64, seq int64) {
	live := len(x.key) - x.floor
	if x.floor > live || len(x.key)+len(keys) > len(x.heads) {
		x.rebuild(live + len(keys))
	}
	mask := uint64(len(x.heads) - 1)
	start := int32(len(x.key)) // the basic window's first record
	for row, k := range keys {
		b := algebra.HashInt64(k, mask)
		r := x.heads[b] - 1
		for r >= start && x.key[r] != k {
			r = x.next[r] - 1
		}
		if r >= start { // the basic window already holds k
			x.cnt[r]++
			for a, c := range x.aggCol {
				foldInt(&x.aggs[a][r], x.aggKind[a], cols[c][row])
			}
			continue
		}
		x.key = append(x.key, k)
		x.seq = append(x.seq, seq)
		x.cnt = append(x.cnt, 1)
		for a, c := range x.aggCol {
			x.aggs[a] = append(x.aggs[a], cols[c][row])
		}
		x.next = append(x.next, x.heads[b])
		x.heads[b] = int32(len(x.key))
	}
}

// foldInt folds v into the pre-aggregate *dst of a record that already
// holds a row.
func foldInt(dst *int64, kind algebra.AggKind, v int64) {
	switch {
	case kind == algebra.AggSum:
		*dst += v
	case kind == algebra.AggMin && v < *dst, kind == algebra.AggMax && v > *dst:
		*dst = v
	}
}

// rebuild drops the dead records and relinks the live ones over at least
// 2·rows buckets, so the next rebuild waits until the dead records
// outnumber the live ones or the live rows grow. The buckets shrink once
// the rows need fewer than a quarter of them.
func (x *indexSide) rebuild(rows int) {
	n := copy(x.key, x.key[x.floor:])
	x.key = x.key[:n]
	x.seq = x.seq[:copy(x.seq, x.seq[x.floor:])]
	x.cnt = x.cnt[:copy(x.cnt, x.cnt[x.floor:])]
	for a, v := range x.aggs {
		x.aggs[a] = v[:copy(v, v[x.floor:])]
	}
	x.floor = 0
	size := 16 // algebra.HashInt64 needs a mask above zero
	for size < 2*rows {
		size <<= 1
	}
	if len(x.heads) < size || len(x.heads) > 4*size {
		x.heads = make([]int32, size)
	} else {
		clear(x.heads)
	}
	mask := uint64(len(x.heads) - 1)
	x.next = x.next[:0]
	for r, k := range x.key {
		b := algebra.HashInt64(k, mask)
		x.next = append(x.next, x.heads[b])
		x.heads[b] = int32(r + 1)
	}
}

// initIndex sets up the join index when the plan qualifies (after
// initPanes: every fold targets a pane ring).
func (rt *Runtime) initIndex() {
	ip := rt.ip
	folds, why := ip.indexFolds(rt.opts)
	if why != "" {
		return
	}
	x := &joinIndex{}
	for k, r := range [2]plan.Reg{ip.Join.LeftIn, ip.Join.RightIn} {
		x.keyPos[k] = rt.slotPos[ip.CellSources[k]][r]
	}
	for _, f := range folds {
		p := rt.paneCat[ip.Panes[f.pane].Cat]
		hf := hitFold{ring: p.ring, kind: p.spec.Kind, side: -1}
		if f.kind != algebra.AggCount {
			side := &x.sides[f.side]
			pos := rt.slotPos[ip.CellSources[f.side]][f.col]
			hf.side, hf.col = f.side, slices.Index(side.cols, pos)
			if hf.col < 0 {
				hf.col = len(side.cols)
				side.cols = append(side.cols, pos)
			}
			hf.agg = len(side.aggs)
			side.aggs = append(side.aggs, nil)
			side.aggKind = append(side.aggKind, hf.kind)
			side.aggCol = append(side.aggCol, hf.col)
		}
		x.folds = append(x.folds, hf)
	}
	for k := range x.cur {
		x.cur[k] = make([][]int64, len(x.sides[k].cols))
	}
	rt.index = x
}

// updateIndex is updateCells on the index path: one probe per new row of
// either side, every hit folded into its pane. paneNS is the pane expiry,
// which is merge work; inserting, probing and folding are join work.
func (rt *Runtime) updateIndex(evicted bool, stats *StepStats) (paneNS int64, err error) {
	x, ip := rt.index, rt.ip
	// Read the new basic windows' columns before changing any state.
	var keys [2][]int64
	var newPos [2]int
	var first [2]int64 // sequence number of each side's oldest live basic window
	for k := range keys {
		ring := rt.slots[ip.CellSources[k]]
		file := ring[len(ring)-1]
		if keys[k], err = intColumn(file[x.keyPos[k]], -1); err != nil {
			return 0, err
		}
		for c, pos := range x.sides[k].cols {
			if x.cur[k][c], err = intColumn(file[pos], len(keys[k])); err != nil {
				return 0, err
			}
		}
		newPos[k] = len(ring) - 1
		first[k] = x.seq[k] - int64(newPos[k])
	}
	if evicted {
		tp := time.Now()
		rt.expirePanes()
		paneNS = time.Since(tp).Nanoseconds()
	}
	for k := range x.sides {
		x.sides[k].expire(first[k])
	}
	x.sides[1].insert(keys[1], x.cur[1], x.seq[1])
	pairs := rt.probeIndex(0, keys[0], newPos[0], first[1])
	pairs += rt.probeIndex(1, keys[1], newPos[1], first[0])
	x.sides[0].insert(keys[0], x.cur[0], x.seq[0])
	x.seq[0]++
	x.seq[1]++
	clear(x.cur[0])
	clear(x.cur[1])
	stats.JoinProbes += int64(len(keys[0]) + len(keys[1]))
	stats.JoinHits += pairs
	return paneNS, nil
}

// probeIndex probes the other side's index with the new rows of side p,
// whose basic window sits at ring position pos, and folds every hit into
// the pane of its cell; first is the other side's oldest live sequence
// number. A hit is a record: the pairs of one probing row with the rows of
// one basic window that share its key. It returns the number of pairs.
func (rt *Runtime) probeIndex(p int, keys []int64, pos int, first int64) int64 {
	x := rt.index
	idx := &x.sides[1-p]
	if len(idx.heads) == 0 {
		return 0
	}
	mask := uint64(len(idx.heads) - 1)
	n, head := rt.ip.N, rt.paneHead
	floor := int32(idx.floor)
	var pairs int64
	for a, key := range keys {
		for e := idx.heads[algebra.HashInt64(key, mask)]; e > floor; e = idx.next[e-1] {
			r := e - 1
			if idx.key[r] != key {
				continue
			}
			c := idx.cnt[r]
			pairs += c
			k := head + min(pos, int(idx.seq[r]-first))
			if k >= n {
				k -= n
			}
			for _, f := range x.folds {
				v := c // a count
				switch f.side {
				case p:
					// The probing row pairs with c rows: c times its value,
					// which for a sum is one wrapping product.
					if v = x.cur[p][f.col][a]; f.kind == algebra.AggSum {
						v *= c
					}
				case 1 - p:
					v = idx.aggs[f.agg][r]
				}
				f.ring[k].fold(f.kind, v)
			}
		}
	}
	return pairs
}

// intColumn returns an integer slot column's values (runPerBW stores
// dense vectors); rows >= 0 demands at least that many and keeps exactly
// those.
func intColumn(d exec.Datum, rows int) ([]int64, error) {
	if d.Kind != exec.KindVec || !vector.IntKind(d.Vec.Type()) || d.Vec.Len() < rows {
		return nil, fmt.Errorf("core: join index: slot holds no integer column of %d rows", max(rows, 0))
	}
	vals := d.Vec.Int64s()
	if rows >= 0 {
		vals = vals[:rows]
	}
	return vals, nil
}
