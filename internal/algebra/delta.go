package algebra

import (
	"datacell/internal/vector"
)

// This file is the delta-maintained grouped merge: the incremental merge
// stage's re-group of N concatenated partials, maintained across slides
// instead of recomputed. When every compensating aggregate is invertible
// (integer Sum, which is also what count lowers to) a slide changes the
// window by exactly two partials, so the per-key totals can be kept: the
// new basic window's partial is added, the expired one subtracted, and
// only those two partials' rows touch the hashtable. Emission is a
// sequential scan, not a re-group.
//
// The output is bit-identical to Fused over the concatenated live
// partials — values AND row order. Fused emits groups in first-occurrence
// order, so the state tracks, per group, its earliest live partial row:
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
//
// Emit therefore walks the arena once, front to back, and copies out the
// flagged rows: first-occurrence order falls out of the arena order.
//
// Rows are addressed by a 31-bit sequence number that wraps; the arena
// capacity is a power of two, so seq & mask stays consistent across the
// wrap and only equality of sequence numbers is ever tested.

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
// block. It is private to one runtime: it copies what it needs out of the
// partials it is shown and never writes to them.
type Delta struct {
	keyTyp  vector.Type
	aggTyps []vector.Type
	stride  int // int64 words per arena record

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
}

// Invertible reports whether the aggregate can be maintained by adding
// and subtracting partials: a Sum whose accumulator is a two's-complement
// integer (float sums are order-sensitive, Min/Max have no inverse).
func (a FusedAgg) Invertible() bool {
	return a.Kind == AggSum && vector.IntKind(a.Typ)
}

// NewDelta returns an empty state for a block grouping on one
// Int64/Timestamp key and summing the given Int64/Timestamp columns.
func NewDelta(keyTyp vector.Type, aggTyps []vector.Type) *Delta {
	d := &Delta{
		keyTyp:  keyTyp,
		aggTyps: append([]vector.Type(nil), aggTyps...),
		stride:  deltaRecTot + len(aggTyps),
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
	st := d.stride
	for i, k := range keys {
		s := d.hi
		d.hi = (s + 1) & deltaSeqMask
		r := d.rec[int(s&d.amask)*st:][:st]
		r[deltaRecKey] = k
		if (d.groups+1)*4 > len(d.slots)*3 {
			d.rehash(2 * len(d.slots))
		}
		h := hashInt64(k, d.tmask)
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
				break
			}
			if sl.key == k {
				head := d.rec[int(sl.head&d.amask)*st:][:st]
				for a, col := range vals {
					head[deltaRecTot+a] += col[i]
				}
				// Chain the previous latest occurrence to this row (keeping
				// its first-row flag); a self-link means "no next yet".
				link := &d.rec[int(sl.tail&d.amask)*st+deltaRecLink]
				*link = int64(uint32(*link)&deltaFlag | s)
				sl.tail = s
				r[deltaRecLink] = int64(s)
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
	st := d.stride
	for i := 0; i < n; i++ {
		s := d.lo
		d.lo = (s + 1) & deltaSeqMask
		r := d.rec[int(s&d.amask)*st:][:st]
		k := r[deltaRecKey]
		// Every row of the oldest partial is its key's earliest live row by
		// the time it is reached: any earlier occurrence sat in this same
		// partial and has just handed the role over.
		h := hashInt64(k, d.tmask)
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
		for a, col := range vals {
			nr[deltaRecTot+a] = r[deltaRecTot+a] - col[i]
		}
		nr[deltaRecLink] |= int64(deltaFlag)
		d.slots[h].head = next | deltaFlag
	}
	d.rows -= n
	return true
}

// Emit returns the merged key column and one column per aggregate, in
// first-occurrence order over the concatenated live partials. The columns
// are freshly allocated (they escape into result tables and shared merge
// heads); nothing else is.
func (d *Delta) Emit() (*vector.Vector, []*vector.Vector) {
	// The scan below is branch-free: every record is copied to output
	// position j, and j advances only past flagged rows — whether a row is
	// its key's first occurrence is close to a coin flip, which a branch
	// would mispredict. That can write one record past the last group, so
	// the columns carry one spare element until they are wrapped.
	k := d.groups
	keys := make([]int64, k+1)
	cols := make([][]int64, len(d.aggTyps))
	for a := range cols {
		cols[a] = make([]int64, k+1)
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
		h := hashInt64(sl.key, d.tmask)
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
			home := hashInt64(d.slots[j].key, d.tmask)
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
