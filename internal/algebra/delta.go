package algebra

import (
	"math"
	"math/bits"

	"datacell/internal/vector"
)

// This file is the delta-maintained grouped merge: the incremental merge
// stage's re-group of N concatenated partials, maintained across slides
// instead of recomputed. When every compensating aggregate is an integer
// Sum (which is also what count lowers to), Min or Max, a slide changes the
// window by exactly two partials, so the per-key totals can be kept: the
// new basic window's partial is added, the expired one taken out, and only
// those two partials' rows touch the hashtable. Emission is a sequential
// scan, not a re-group.
//
// The output is bit-identical to the block's own instructions (the
// kernel's GROUP BY over the concatenated live partials) — values AND row
// order. Those emit groups in first-occurrence order, so the state tracks,
// per group, its earliest live partial row:
//
//   - Every live partial row has a record in one ring arena, in
//     concatenation order (oldest partial first, rows in partial order).
//   - A row's record carries a link to the key's next occurrence, filled
//     when that later row is inserted, and a flag saying whether it is
//     currently the key's earliest live row.
//   - The running totals of a group live in the record of its earliest
//     row, not in the hashtable. When that row expires the totals (minus
//     the expired contribution) and the flag move to the linked next
//     occurrence in O(1); a row with no next occurrence takes its group
//     with it, and the key is deleted from the table.
//   - Min and Max have no inverse, so a record that is not its group's
//     head keeps its own value in the aggregate's total slot (unused
//     otherwise), and the head keeps the extreme. An expiring head whose
//     own value (the caller passes it back) differs from the extreme hands
//     the extreme on unchanged; one whose value is the extreme has its
//     successor rescan the chain to the tail: the key's live rows, one per
//     live partial it occurs in unless a basic window was combined from
//     chunks. Integer comparisons are order-free, so the result is exact.
//
// Emit therefore walks the arena once, front to back, and copies out the
// flagged rows: first-occurrence order falls out of the arena order.
//
// Rows are addressed by a 31-bit sequence number that wraps; the arena
// capacity is a power of two, so seq & mask stays consistent across the
// wrap and only equality of sequence numbers is ever tested.
//
// A block whose residual only filters the head (HAVING) can have the state
// keep the filter's verdict instead of emitting every group for the
// residual to drop (EmitFiltered). Each registered filter owns one bit per
// arena position, set iff the record there is a live group head whose
// totals pass the filter. Add and Expire list the heads they touch — a new
// group, changed totals, a head moved to the next occurrence — and the
// next emit re-evaluates only those, with the kernel's own Select, before
// it gathers the set bits in arena order. A steady-state filtered emit
// therefore visits O(touched + capacity/64 + kept) records, not every live
// row.

const (
	// deltaFlag is the high bit of a record's link word (the row is its
	// key's earliest live occurrence) and of a table slot's head word (the
	// slot is occupied). Sequence numbers occupy the low 31 bits.
	deltaFlag    = uint32(1) << 31
	deltaSeqMask = deltaFlag - 1

	deltaMinCap = 16
	// Arena records are [key, link, total_0 .. total_{naggs-1}].
	deltaRecKey  = 0
	deltaRecLink = 1
	deltaRecTot  = 2
)

// deltaSlot is one open-addressing table entry: a live key with the
// sequence numbers of its earliest (head, flagged when occupied) and
// latest (tail) live rows.
type deltaSlot struct {
	key  int64
	head uint32
	tail uint32
}

// Delta is the persistent state of one delta-maintained grouped merge
// block. It copies what it needs out of the partials it is shown and never
// writes to them, so the partials may be shared. It is not safe for
// concurrent use: a merge tail's runtimes share one, and the owner
// (core.TailState) serializes them.
type Delta struct {
	keyTyp  vector.Type
	aggTyps []vector.Type
	kinds   []AggKind
	extreme bool // some aggregate is a Min or Max
	stride  int  // int64 words per arena record

	rec    []int64 // ring arena of live partial rows, capacity amask+1
	amask  uint32
	lo, hi uint32 // live sequence range [lo, hi), modulo 2^31
	rows   int

	// sizes is the FIFO of live partial row counts (a ring, oldest at
	// sizeLo), so Expire knows how many rows the oldest partial owns.
	sizes  []int32
	sizeLo int
	sizeN  int

	slots  []deltaSlot
	tmask  uint64
	groups int

	// Filters (EmitFiltered). While one is registered, Add and Expire list
	// the arena positions of the heads they touch in touched, deduplicated
	// by the mark bitmap, and refresh re-evaluates just those. stale asks
	// for every live head instead (after Reset or a relayout); advanced
	// says the totals moved since the last refresh.
	filters  []*deltaFilter
	touched  []uint32
	mark     []uint64
	stale    bool
	advanced bool
	// Refresh scratch: gathered head positions, their columns (key first),
	// and two selections the conjuncts alternate between.
	gpos  []uint32
	gcols [][]int64
	gsel  [2]vector.Sel
	// visited counts the records filters have read: gathered heads,
	// verdict words scanned and kept rows copied.
	visited int
}

// Conjunct is one comparison of a delta filter: column Col of the merged
// head (0 the key, 1+a aggregate a) compared by Cmp against Val, exactly as
// Select compares.
type Conjunct struct {
	Col int
	Cmp CmpOp
	Val vector.Value
}

func sameConjuncts(a, b []Conjunct) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.Col != y.Col || x.Cmp != y.Cmp || x.Val.Typ != y.Val.Typ || x.Val.I != y.Val.I ||
			math.Float64bits(x.Val.F) != math.Float64bits(y.Val.F) || x.Val.S != y.Val.S || x.Val.B != y.Val.B {
			return false
		}
	}
	return true
}

// deltaFilter is one registered conjunction and its verdicts: bit p of
// bits is set iff arena position p holds a live group head whose totals
// pass every conjunct; kept counts the set bits. used says an emit read
// the filter since the last refresh — one that none did is dropped.
type deltaFilter struct {
	conj []Conjunct
	bits []uint64
	kept int
	used bool
}

// NewDelta returns an empty state for a block grouping on one
// Int64/Timestamp key whose aggregates fold Int64/Timestamp columns with
// the given kinds (AggSum, AggMin or AggMax), aligned with aggTyps.
func NewDelta(keyTyp vector.Type, aggTyps []vector.Type, kinds []AggKind) *Delta {
	d := &Delta{
		keyTyp:  keyTyp,
		aggTyps: append([]vector.Type(nil), aggTyps...),
		kinds:   append([]AggKind(nil), kinds...),
		stride:  deltaRecTot + len(aggTyps),
	}
	for _, k := range kinds {
		d.extreme = d.extreme || k == AggMin || k == AggMax
	}
	d.Reset()
	return d
}

// Reset empties the state, keeping its storage.
func (d *Delta) Reset() {
	if d.rec == nil {
		d.rec = make([]int64, deltaMinCap*d.stride)
		d.amask = deltaMinCap - 1
		d.slots = make([]deltaSlot, deltaMinCap)
		d.tmask = deltaMinCap - 1
		d.sizes = make([]int32, deltaMinCap)
	}
	clear(d.slots)
	d.lo, d.hi, d.rows = 0, 0, 0
	d.sizeLo, d.sizeN = 0, 0
	d.groups = 0
	d.dropTouched()
	d.stale, d.advanced = true, true
}

// Groups returns the number of live groups.
func (d *Delta) Groups() int { return d.groups }

// Rows returns the number of live partial rows.
func (d *Delta) Rows() int { return d.rows }

// Partials returns the number of live partials.
func (d *Delta) Partials() int { return d.sizeN }

// TableCap reports the allocated capacity of the key table, in slots (for
// the bounded-state tests).
func (d *Delta) TableCap() int { return len(d.slots) }

// ArenaCap reports the allocated capacity of the row arena, in records.
func (d *Delta) ArenaCap() int { return int(d.amask) + 1 }

// Filters returns the number of registered filters.
func (d *Delta) Filters() int { return len(d.filters) }

// Visited returns the cumulative number of records the filters have read:
// heads re-evaluated, verdict words scanned and kept rows emitted.
func (d *Delta) Visited() int { return d.visited }

// Add appends a partial as the newest basic window: keys is its key
// column, vals one column per aggregate aligned with keys. Duplicate keys
// inside one partial (a basic window combined from chunks) are fine.
// All resizing — growing for the new rows, shrinking after the live set
// has fallen to a fraction of capacity — happens here, at the cycle's
// high-water mark, so a steady-state Expire+Add allocates nothing.
func (d *Delta) Add(keys []int64, vals [][]int64) {
	n := len(keys)
	d.reserve(d.rows + n)
	d.pushSize(n)
	d.advanced = true
	track := len(d.filters) > 0 && !d.stale
	extreme := d.extreme
	st := d.stride
	for i, k := range keys {
		s := d.hi
		d.hi = (s + 1) & deltaSeqMask
		r := d.rec[int(s&d.amask)*st:][:st]
		r[deltaRecKey] = k
		if (d.groups+1)*4 > len(d.slots)*3 {
			d.rehash(2 * len(d.slots))
		}
		h := HashInt64(k, d.tmask)
		for {
			sl := &d.slots[h]
			if sl.head&deltaFlag == 0 {
				// First live occurrence: the row starts a group and holds
				// its totals.
				*sl = deltaSlot{key: k, head: s | deltaFlag, tail: s}
				d.groups++
				r[deltaRecLink] = int64(s | deltaFlag)
				for a, col := range vals {
					r[deltaRecTot+a] = col[i]
				}
				if track {
					d.touch(s & d.amask)
				}
				break
			}
			if sl.key == k {
				head := d.rec[int(sl.head&d.amask)*st:][:st]
				if extreme {
					d.fold(head, r, vals, i)
				} else {
					for a, col := range vals {
						head[deltaRecTot+a] += col[i]
					}
				}
				// Chain the previous latest occurrence to this row (keeping
				// its first-row flag); a self-link means "no next yet".
				link := &d.rec[int(sl.tail&d.amask)*st+deltaRecLink]
				*link = int64(uint32(*link)&deltaFlag | s)
				sl.tail = s
				r[deltaRecLink] = int64(s)
				if track {
					d.touch(sl.head & d.amask)
				}
				break
			}
			h = (h + 1) & d.tmask
		}
	}
	d.rows += n
	if c := d.ArenaCap(); c > deltaMinCap && d.rows*4 <= c {
		d.relayout(c / 2)
	}
	if c := len(d.slots); c > deltaMinCap && d.groups*8 < c {
		d.rehash(c / 2)
	}
}

// Expire removes the oldest partial, given the same columns it was added
// with (only the values are read back; the keys are remembered). It
// returns false, leaving the state untouched, when the columns do not
// match the oldest partial's row count — the caller's ring and this state
// have diverged and the state must be rebuilt.
func (d *Delta) Expire(keys []int64, vals [][]int64) bool {
	if d.sizeN == 0 || len(vals) != len(d.aggTyps) {
		return false
	}
	n := int(d.sizes[d.sizeLo])
	if len(keys) != n {
		return false
	}
	for _, col := range vals {
		if len(col) != n {
			return false
		}
	}
	d.sizeLo = (d.sizeLo + 1) & (len(d.sizes) - 1)
	d.sizeN--
	d.advanced = true
	track := len(d.filters) > 0 && !d.stale
	extreme := d.extreme
	st := d.stride
	for i := 0; i < n; i++ {
		s := d.lo
		d.lo = (s + 1) & deltaSeqMask
		r := d.rec[int(s&d.amask)*st:][:st]
		if track {
			d.unset(s & d.amask) // the record leaves the window
		}
		k := r[deltaRecKey]
		// Every row of the oldest partial is its key's earliest live row by
		// the time it is reached: any earlier occurrence sat in this same
		// partial and has just handed the role over.
		h := HashInt64(k, d.tmask)
		for d.slots[h].key != k || d.slots[h].head != s|deltaFlag {
			if d.slots[h].head&deltaFlag == 0 {
				panic("algebra: delta state lost a live key")
			}
			h = (h + 1) & d.tmask
		}
		next := uint32(r[deltaRecLink]) & deltaSeqMask
		if next == s {
			d.deleteSlot(h)
			continue
		}
		nr := d.rec[int(next&d.amask)*st:][:st]
		if extreme {
			d.handOn(r, nr, next, vals, i)
		} else {
			for a, col := range vals {
				nr[deltaRecTot+a] = r[deltaRecTot+a] - col[i]
			}
		}
		nr[deltaRecLink] |= int64(deltaFlag)
		d.slots[h].head = next | deltaFlag
		if track {
			d.touch(next & d.amask)
		}
	}
	d.rows -= n
	return true
}

// fold adds row i of vals, whose record r is not its group's head, to the
// head's totals: sums accumulate, extremes compare, and r keeps its own
// Min/Max values for the rescan that may follow its head's expiry.
func (d *Delta) fold(head, r []int64, vals [][]int64, i int) {
	for a, col := range vals {
		v, tot := col[i], &head[deltaRecTot+a]
		switch d.kinds[a] {
		case AggSum:
			*tot += v
			continue
		case AggMin:
			*tot = min(*tot, v)
		case AggMax:
			*tot = max(*tot, v)
		}
		r[deltaRecTot+a] = v
	}
}

// handOn moves the totals of expiring head r, whose own values are row i
// of vals, to its next occurrence nr at sequence number next. A Min/Max
// extreme the expiring row did not set carries over; one it set (perhaps
// tied) is recomputed from the own values of nr and its successors.
func (d *Delta) handOn(r, nr []int64, next uint32, vals [][]int64, i int) {
	for a, col := range vals {
		tot := r[deltaRecTot+a]
		switch {
		case d.kinds[a] == AggSum:
			tot -= col[i]
		case col[i] == tot:
			tot = d.rescan(next, a)
		}
		nr[deltaRecTot+a] = tot
	}
}

// rescan returns the extreme of aggregate a over the own values of the
// chain from the record at sequence number s to its group's tail.
func (d *Delta) rescan(s uint32, a int) int64 {
	st, isMin := d.stride, d.kinds[a] == AggMin
	r := d.rec[int(s&d.amask)*st:][:st]
	m := r[deltaRecTot+a]
	for next := uint32(r[deltaRecLink]) & deltaSeqMask; next != s; next = uint32(r[deltaRecLink]) & deltaSeqMask {
		s, r = next, d.rec[int(next&d.amask)*st:][:st]
		if v := r[deltaRecTot+a]; isMin {
			m = min(m, v)
		} else {
			m = max(m, v)
		}
	}
	return m
}

// EmitBuf is reusable storage for the columns Emit writes. A runtime
// whose heads nobody else reads keeps one per block, so a steady-state
// emission allocates nothing in proportion to the group count.
type EmitBuf struct {
	keys []int64
	aggs [][]int64
}

// grown returns b resized to n elements, reallocating only when its
// capacity is short — with a quarter spare when asked, so a reused buffer
// is not regrown every time the group count edges up. The contents are
// garbage; Emit overwrites them.
func grown(b []int64, n int, spare bool) []int64 {
	switch {
	case cap(b) >= n:
		return b[:n]
	case spare:
		return make([]int64, n, n+n/4)
	}
	return make([]int64, n)
}

// Emit returns the merged key column and one column per aggregate, in
// first-occurrence order over the concatenated live partials. With a nil
// buf the columns are freshly allocated and immutable afterwards: they may
// escape into result tables and shared merge heads. Otherwise they are
// views over buf's storage, grown as needed, and valid only until the
// next Emit into the same buf.
func (d *Delta) Emit(buf *EmitBuf) (*vector.Vector, []*vector.Vector) {
	d.refresh()
	reused := buf != nil
	if !reused {
		buf = &EmitBuf{}
	}
	// The scan below is branch-free: every record is copied to output
	// position j, and j advances only past flagged rows — whether a row is
	// its key's first occurrence is close to a coin flip, which a branch
	// would mispredict. That can write one record past the last group, so
	// the columns carry one spare element.
	k := d.groups
	keys := grown(buf.keys, k+1, reused)
	buf.keys = keys
	if len(buf.aggs) != len(d.aggTyps) {
		buf.aggs = make([][]int64, len(d.aggTyps))
	}
	cols := buf.aggs
	for a := range cols {
		cols[a] = grown(cols[a], k+1, reused)
	}
	st := d.stride
	j := 0
	at, left := int(d.lo&d.amask), d.rows
	for left > 0 {
		end := at + left
		if c := d.ArenaCap(); end > c {
			end = c
		}
		seg := d.rec[at*st : end*st]
		switch len(cols) {
		case 1:
			c0 := cols[0]
			for ; len(seg) >= 3; seg = seg[3:] {
				keys[j], c0[j] = seg[deltaRecKey], seg[deltaRecTot]
				j += int(uint32(seg[deltaRecLink]) >> 31)
			}
		case 2:
			c0, c1 := cols[0], cols[1]
			for ; len(seg) >= 4; seg = seg[4:] {
				keys[j], c0[j], c1[j] = seg[deltaRecKey], seg[deltaRecTot], seg[deltaRecTot+1]
				j += int(uint32(seg[deltaRecLink]) >> 31)
			}
		default:
			for ; len(seg) >= st; seg = seg[st:] {
				keys[j] = seg[deltaRecKey]
				for a := range cols {
					cols[a][j] = seg[deltaRecTot+a]
				}
				j += int(uint32(seg[deltaRecLink]) >> 31)
			}
		}
		left -= end - at
		at = 0
	}
	if j != k {
		panic("algebra: delta first-row flags disagree with the group count")
	}
	out := make([]*vector.Vector, len(cols))
	for a, c := range cols {
		out[a] = intVector(d.aggTyps[a], c[:k:k])
	}
	return intVector(d.keyTyp, keys[:k:k]), out
}

// EmitFiltered is Emit restricted to the groups that pass every conjunct
// of conj: bit-identical, values and order, to Emit followed by one Select
// per conjunct, each over the rows the previous one kept. The first call
// with a conjunction registers it, evaluating every live head once; after
// that each call re-evaluates only the heads the state's advance touched
// and gathers the kept records by scanning the verdict bitmap in arena
// order. A filter that no EmitFiltered call uses between two advances is
// dropped, so registrations need no release.
func (d *Delta) EmitFiltered(conj []Conjunct, buf *EmitBuf) (*vector.Vector, []*vector.Vector) {
	f := d.filter(conj)
	f.used = true
	reused := buf != nil
	if !reused {
		buf = &EmitBuf{}
	}
	k := f.kept
	keys := grown(buf.keys, k, reused)
	buf.keys = keys
	if len(buf.aggs) != len(d.aggTyps) {
		buf.aggs = make([][]int64, len(d.aggTyps))
	}
	cols := buf.aggs
	for a := range cols {
		cols[a] = grown(cols[a], k, reused)
	}
	// Scan the words in ring order from lo: the bits at and above lo's
	// position first, its wrapped remainder below it last.
	st, start, nw := d.stride, d.lo&d.amask, len(f.bits)
	w0, j := int(start>>6), 0
	for i := 0; i <= nw; i++ {
		wi := (w0 + i) & (nw - 1)
		w := f.bits[wi]
		switch i {
		case 0:
			w &= ^uint64(0) << (start & 63)
		case nw:
			w &= uint64(1)<<(start&63) - 1
		}
		for ; w != 0; w &= w - 1 {
			r := d.rec[(wi<<6|bits.TrailingZeros64(w))*st:][:st]
			keys[j] = r[deltaRecKey]
			for a, c := range cols {
				c[j] = r[deltaRecTot+a]
			}
			j++
		}
	}
	if j != k {
		panic("algebra: delta filter bits disagree with the kept count")
	}
	d.visited += nw + k
	out := make([]*vector.Vector, len(cols))
	for a, c := range cols {
		out[a] = intVector(d.aggTyps[a], c[:k:k])
	}
	return intVector(d.keyTyp, keys[:k:k]), out
}

// filter returns the registered filter for conj after refreshing the
// verdicts, registering and fully evaluating it when it is new.
func (d *Delta) filter(conj []Conjunct) *deltaFilter {
	for _, f := range d.filters {
		if sameConjuncts(f.conj, conj) {
			f.used = true // the caller emits it: refresh must not drop it
			d.refresh()
			return f
		}
	}
	d.refresh()
	words := bitWords(d.ArenaCap())
	if len(d.mark) != words {
		d.mark = make([]uint64, words)
	}
	f := &deltaFilter{conj: append([]Conjunct(nil), conj...), bits: make([]uint64, words)}
	d.filters = append(d.filters, f)
	d.evaluateAll(d.filters[len(d.filters)-1:])
	return f
}

// refresh brings the filters' verdicts to the current totals once per
// advance. It first drops every filter no emit used since the previous
// refresh, then re-evaluates the heads the advance touched, or every live
// head after a Reset or relayout.
func (d *Delta) refresh() {
	if !d.advanced {
		return
	}
	d.advanced = false
	live := d.filters[:0]
	for _, f := range d.filters {
		if f.used {
			f.used = false
			live = append(live, f)
		}
	}
	clear(d.filters[len(live):])
	d.filters = live
	switch {
	case len(live) == 0:
		d.filters, d.mark, d.touched = nil, nil, d.touched[:0]
		d.stale = false
	case d.stale:
		d.stale = false
		d.dropTouched()
		for _, f := range live {
			clear(f.bits)
			f.kept = 0
		}
		d.evaluateAll(live)
	default:
		// A touched position may since have expired (its bits are clear)
		// or been reused by a row that is no head: only live heads count.
		pos := d.gpos[:0]
		for _, p := range d.touched {
			if (p-d.lo)&d.amask < uint32(d.rows) && uint32(d.rec[int(p)*d.stride+deltaRecLink])&deltaFlag != 0 {
				pos = append(pos, p)
			}
		}
		d.gpos = pos
		d.dropTouched()
		d.evaluate(pos, live)
	}
}

// evaluateAll recomputes the verdicts of filters at every live head, in
// arena order.
func (d *Delta) evaluateAll(filters []*deltaFilter) {
	pos := d.gpos[:0]
	st := d.stride
	for s, i := d.lo, 0; i < d.rows; s, i = (s+1)&deltaSeqMask, i+1 {
		if p := s & d.amask; uint32(d.rec[int(p)*st+deltaRecLink])&deltaFlag != 0 {
			if pos = append(pos, p); len(pos) == deltaEvalBatch {
				d.evaluate(pos, filters)
				pos = pos[:0]
			}
		}
	}
	d.evaluate(pos, filters)
	d.gpos = pos
	d.visited += d.rows
}

// deltaEvalBatch bounds the heads evaluate gathers at once, so its scratch
// stays small however many heads a rebuild re-evaluates.
const deltaEvalBatch = 1024

// evaluate recomputes the verdicts of filters at the given head positions:
// a batch at a time, it gathers their columns and runs each conjunct as a
// Select over the rows the previous conjuncts kept.
func (d *Delta) evaluate(pos []uint32, filters []*deltaFilter) {
	d.visited += len(pos)
	if len(d.gcols) != 1+len(d.aggTyps) {
		d.gcols = make([][]int64, 1+len(d.aggTyps))
	}
	st := d.stride
	for len(pos) > 0 {
		batch := pos[:min(len(pos), deltaEvalBatch)]
		pos = pos[len(batch):]
		n := len(batch)
		for c := range d.gcols {
			d.gcols[c] = grown(d.gcols[c], n, false)
		}
		for i, p := range batch {
			r := d.rec[int(p)*st:][:st]
			d.gcols[0][i] = r[deltaRecKey]
			for a := 1; a < len(d.gcols); a++ {
				d.gcols[a][i] = r[deltaRecTot+a-1]
			}
		}
		for _, f := range filters {
			var cand vector.Sel
			for ci, c := range f.conj {
				typ := d.keyTyp
				if c.Col > 0 {
					typ = d.aggTyps[c.Col-1]
				}
				cand = SelectInto(d.gsel[ci&1][:0], intVector(typ, d.gcols[c.Col][:n]), c.Cmp, c.Val, cand, 0)
				d.gsel[ci&1] = cand
				if len(cand) == 0 {
					break
				}
			}
			for _, p := range batch {
				if b := uint64(1) << (p & 63); f.bits[p>>6]&b != 0 {
					f.bits[p>>6] &^= b
					f.kept--
				}
			}
			for _, i := range cand {
				p := batch[i]
				f.bits[p>>6] |= uint64(1) << (p & 63)
				f.kept++
			}
		}
	}
}

// touch lists the head at arena position p for the next refresh, once.
func (d *Delta) touch(p uint32) {
	if b := uint64(1) << (p & 63); d.mark[p>>6]&b == 0 {
		d.mark[p>>6] |= b
		d.touched = append(d.touched, p)
	}
}

// unset clears every filter's verdict at arena position p.
func (d *Delta) unset(p uint32) {
	b := uint64(1) << (p & 63)
	for _, f := range d.filters {
		if f.bits[p>>6]&b != 0 {
			f.bits[p>>6] &^= b
			f.kept--
		}
	}
}

// dropTouched empties the touched list and its marks.
func (d *Delta) dropTouched() {
	for _, p := range d.touched {
		d.mark[p>>6] &^= uint64(1) << (p & 63)
	}
	d.touched = d.touched[:0]
}

// bitWords is the length of a bitmap over an arena of the given capacity.
func bitWords(capacity int) int { return (capacity + 63) >> 6 }

// pushSize records the newest partial's row count.
func (d *Delta) pushSize(n int) {
	if d.sizeN == len(d.sizes) {
		grown := make([]int32, 2*len(d.sizes))
		for i := 0; i < d.sizeN; i++ {
			grown[i] = d.sizes[(d.sizeLo+i)&(len(d.sizes)-1)]
		}
		d.sizes, d.sizeLo = grown, 0
	}
	d.sizes[(d.sizeLo+d.sizeN)&(len(d.sizes)-1)] = int32(n)
	d.sizeN++
}

// reserve grows the arena to hold rows records.
func (d *Delta) reserve(rows int) {
	c := d.ArenaCap()
	if rows <= c {
		return
	}
	if rows > int(deltaSeqMask) {
		panic("algebra: delta arena exceeds 2^31 rows")
	}
	for c < rows {
		c <<= 1
	}
	d.relayout(c)
}

// relayout moves the live records into an arena of the given power-of-two
// capacity. Links are sequence numbers, so they survive unchanged.
func (d *Delta) relayout(capacity int) {
	st := d.stride
	rec := make([]int64, capacity*st)
	mask := uint32(capacity - 1)
	for s, i := d.lo, 0; i < d.rows; s, i = (s+1)&deltaSeqMask, i+1 {
		copy(rec[int(s&mask)*st:][:st], d.rec[int(s&d.amask)*st:][:st])
	}
	d.rec, d.amask = rec, mask
	if len(d.filters) > 0 {
		// Positions moved: the verdicts are recomputed at the next refresh.
		words := bitWords(capacity)
		d.mark = make([]uint64, words)
		d.touched = d.touched[:0]
		for _, f := range d.filters {
			f.bits, f.kept = make([]uint64, words), 0
		}
		d.stale = true
	}
}

// rehash moves the live keys into a table of the given power-of-two size.
func (d *Delta) rehash(size int) {
	old := d.slots
	d.slots = make([]deltaSlot, size)
	d.tmask = uint64(size - 1)
	for _, sl := range old {
		if sl.head&deltaFlag == 0 {
			continue
		}
		h := HashInt64(sl.key, d.tmask)
		for d.slots[h].head&deltaFlag != 0 {
			h = (h + 1) & d.tmask
		}
		d.slots[h] = sl
	}
}

// deleteSlot removes the entry at h by backward shift, so probe chains
// stay gap-free and the table never accumulates dead slots: a drifting key
// domain keeps it at O(live groups).
func (d *Delta) deleteSlot(h uint64) {
	d.groups--
	i := h
	for {
		d.slots[i] = deltaSlot{}
		j := i
		for {
			j = (j + 1) & d.tmask
			if d.slots[j].head&deltaFlag == 0 {
				return
			}
			home := HashInt64(d.slots[j].key, d.tmask)
			// Entry j may fill the hole at i unless its home lies cyclically
			// in (i, j] — then moving it would break its own probe chain.
			if i <= j {
				if i < home && home <= j {
					continue
				}
			} else if i < home || home <= j {
				continue
			}
			break
		}
		d.slots[i] = d.slots[j]
		i = j
	}
}

// intVector wraps an int64 payload as an Int64 or Timestamp column.
func intVector(t vector.Type, vals []int64) *vector.Vector {
	if t == vector.Timestamp {
		return vector.FromTimestamp(vals)
	}
	return vector.FromInt64(vals)
}
