package algebra

import (
	"math/bits"

	"datacell/internal/vector"
)

// IntTable is an open-addressing, chain-per-bucket hash table over an
// int64 key column — the reusable join index of the engine. Building is
// separated from probing so the DataCell rewriter can build once per basic
// window and probe the same table from every join-matrix cell (intermediate
// reuse at the plan level, exactly as the paper prescribes for MonetDB's
// join intermediates).
type IntTable struct {
	mask  uint64
	heads []int32 // bucket -> first row index + 1
	next  []int32 // row -> next row with same bucket + 1
	keys  []int64 // row -> key (aligned with build row ids)
	rows  []int32 // row -> original row position in the build column
}

const intHashMul = 0x9E3779B97F4A7C15

// HashInt64 maps k to a slot of a power-of-two table with the given mask
// (Fibonacci hashing): the product's top log2(mask+1) bits, which depend
// on every bit of k. Low or middle product bits would not — keys sharing
// their low bits (say i<<32, or multiples of 2^20) would pile onto a few
// slots and make linear probing quadratic. Every table has at least 16
// slots, so mask > 0 and the shift stays below 64 (the & 63 only spares
// the compiler's over-wide-shift check).
func HashInt64(k int64, mask uint64) uint64 {
	return (uint64(k) * intHashMul) >> (uint(bits.LeadingZeros64(mask)) & 63)
}

// BuildInt builds a table over the rows of v (restricted to sel; nil = all
// rows). v must be an Int64 or Timestamp column.
func BuildInt(v *vector.Vector, sel vector.Sel) *IntTable {
	vals := v.Int64s()
	n := len(vals)
	if sel != nil {
		n = len(sel)
	}
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t := &IntTable{
		mask:  uint64(size - 1),
		heads: make([]int32, size),
		next:  make([]int32, n),
		keys:  make([]int64, n),
		rows:  make([]int32, n),
	}
	// Insert in reverse so each bucket chain enumerates rows in ascending
	// build order (prepend inverts, reverse insertion restores).
	for i := n - 1; i >= 0; i-- {
		var key int64
		var row int32
		if sel == nil {
			key, row = vals[i], int32(i)
		} else {
			key, row = vals[sel[i]], sel[i]
		}
		t.keys[i] = key
		t.rows[i] = row
		h := HashInt64(key, t.mask)
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i) + 1
	}
	return t
}

// Len returns the number of build rows.
func (t *IntTable) Len() int { return len(t.keys) }

// GroupTable is a reusable int64 grouping hashtable: the key -> dense
// group id index behind Group's int64 path, drawn from a pool. It survives
// across calls via Reset, so grouping a basic window or re-grouping
// concatenated partials every slide allocates no table per call.
type GroupTable struct {
	mask  uint64
	slots []groupSlot // interleaved key+id+epoch; one cache line per probe
	epoch uint32      // slots with a different epoch read as empty
	used  int         // occupied slots; drives load-factor growth
}

// groupSlot interleaves the key with its dense id so a probe touches one
// cache line instead of two parallel arrays, and stamps the slot with the
// Reset epoch so clearing a multi-megabyte table between firings is an
// epoch bump, not a memset. A slot is occupied iff its epoch matches the
// table's current epoch (which is never zero, so freshly allocated arrays
// read empty).
type groupSlot struct {
	key   int64
	id    int32
	epoch uint32
}

// NewGroupTable returns an empty reusable grouping table.
func NewGroupTable() *GroupTable { return &GroupTable{} }

// Reset clears the table for reuse, growing the open-addressing arrays
// when the expected key count needs more room. expectedKeys is only a
// sizing hint — the table grows itself if more distinct keys show up.
// The backing storage is retained, so a steady-state caller that Resets
// between firings performs no per-firing allocation.
func (t *GroupTable) Reset(expectedKeys int) {
	size := 16
	for size < 2*expectedKeys {
		size <<= 1
	}
	switch {
	case size > len(t.slots):
		t.slots = make([]groupSlot, size)
		t.mask = uint64(size - 1)
		t.epoch = 1
	default:
		t.epoch++
		if t.epoch == 0 { // epoch wrapped: fall back to one real clear
			clear(t.slots)
			t.epoch = 1
		}
	}
	t.used = 0
}

// grow doubles the open-addressing array and rehashes the occupied
// slots, keeping the assigned group ids.
func (t *GroupTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 16
	}
	t.slots = make([]groupSlot, size)
	t.mask = uint64(size - 1)
	epoch := t.epoch
	if epoch == 0 {
		epoch = 1
		t.epoch = 1
	}
	for _, s := range old {
		if s.epoch != epoch {
			continue
		}
		h := HashInt64(s.key, t.mask)
		for t.slots[h].epoch == epoch {
			h = (h + 1) & t.mask
		}
		s2 := &t.slots[h]
		s2.key, s2.id, s2.epoch = s.key, s.id, epoch
	}
}

// insertInt64 returns the dense id of key k, assigning nextID on first
// sight. found reports whether the key was already present. The table
// grows at 50% load, so an underestimated Reset hint costs a rehash, not
// an unterminated probe loop.
func (t *GroupTable) insertInt64(k int64, nextID int32) (id int32, found bool) {
	if 2*t.used >= len(t.slots) {
		t.grow()
	}
	h := HashInt64(k, t.mask)
	epoch := t.epoch
	for {
		s := &t.slots[h]
		if s.epoch != epoch {
			s.key, s.id, s.epoch = k, nextID, epoch
			t.used++
			return nextID, false
		}
		if s.key == k {
			return s.id, true
		}
		h = (h + 1) & t.mask
	}
}

// Probe joins probe rows of v (restricted to sel) against the table,
// returning (probe row, build row) pairs ordered by probe position and,
// within one probe row, by build position. Two passes: the first counts
// matches so the output selections are allocated exactly once at final
// size; the second fills them. Probing is read-only and safe to run
// concurrently from multiple goroutines.
func (t *IntTable) Probe(v *vector.Vector, sel vector.Sel) JoinResult {
	out := JoinResult{Left: vector.Sel{}, Right: vector.Sel{}}
	if len(t.keys) == 0 {
		return out
	}
	vals := v.Int64s()
	total := 0
	countOne := func(key int64) {
		for e := t.heads[HashInt64(key, t.mask)]; e != 0; e = t.next[e-1] {
			if t.keys[e-1] == key {
				total++
			}
		}
	}
	if sel == nil {
		for _, k := range vals {
			countOne(k)
		}
	} else {
		for _, i := range sel {
			countOne(vals[i])
		}
	}
	if total == 0 {
		return out
	}
	out.Left = make(vector.Sel, 0, total)
	out.Right = make(vector.Sel, 0, total)
	fillOne := func(pos int32, key int64) {
		for e := t.heads[HashInt64(key, t.mask)]; e != 0; e = t.next[e-1] {
			if t.keys[e-1] == key {
				out.Left = append(out.Left, pos)
				out.Right = append(out.Right, t.rows[e-1])
			}
		}
	}
	if sel == nil {
		for i, k := range vals {
			fillOne(int32(i), k)
		}
	} else {
		for _, i := range sel {
			fillOne(i, vals[i])
		}
	}
	return out
}

// ProbeFlipped joins probe rows of v (the RIGHT side of the join;
// restricted to sel) against a table built over the LEFT side, emitting
// pairs in canonical left-row order — build rows in ascending build order
// (= ascending original position when the build selection was nil or
// ascending), probe rows ascending within each build row — via a stable
// counting scatter over the dense build indices.
func (t *IntTable) ProbeFlipped(v *vector.Vector, sel vector.Sel) JoinResult {
	out := JoinResult{Left: vector.Sel{}, Right: vector.Sel{}}
	n := len(t.keys)
	if n == 0 {
		return out
	}
	vals := v.Int64s()
	// Pass 1: walk probe rows in ascending order, recording each match as
	// a (dense build index, probe row) pair and counting per build index.
	cnt := make([]int32, n+1)
	var denses, probes []int32
	probeOne := func(pos int32, key int64) {
		for e := t.heads[HashInt64(key, t.mask)]; e != 0; e = t.next[e-1] {
			if t.keys[e-1] == key {
				denses = append(denses, e-1)
				probes = append(probes, pos)
				cnt[e]++
			}
		}
	}
	if sel == nil {
		for i, k := range vals {
			probeOne(int32(i), k)
		}
	} else {
		for _, i := range sel {
			probeOne(i, vals[i])
		}
	}
	total := len(denses)
	if total == 0 {
		return out
	}
	// Prefix-sum to per-build-index offsets, then scatter. The scatter is
	// stable, so within one build row the probe rows stay ascending.
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	out.Left = make(vector.Sel, total)
	out.Right = make(vector.Sel, total)
	for k, d := range denses {
		at := cnt[d]
		cnt[d]++
		out.Left[at] = t.rows[d]
		out.Right[at] = probes[k]
	}
	return out
}
