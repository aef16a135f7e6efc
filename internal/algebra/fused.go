package algebra

import (
	"math"

	"datacell/internal/vector"
)

// This file is the fused merge kernel: scatter -> shard group+aggregate ->
// tree stitch, the re-grouping kernel of the incremental grouped merge for
// single-int64-key blocks (every other shape runs the block's instructions
// as written). Two choices keep the merge stage's Amdahl floor low:
//
//   - The scatter pass copies row payloads (position, key, aggregate
//     inputs) into per-worker x per-shard cells instead of recording row
//     indices, so the per-shard pass reads a small contiguous buffer
//     sequentially and probes a shard-sized hashtable instead of gathering
//     random rows from multi-megabyte concatenated columns.
//   - Grouping and aggregation are one pass: a row's probe immediately
//     accumulates its aggregate inputs, eliminating the dense-id array and
//     the per-aggregate re-scan of the whole block.
//
// Rows are assigned to shards by key hash only (never by worker schedule),
// each worker scatters a contiguous ascending row range, and cells
// concatenate in worker order — so shard contents are bit-identical at any
// worker count, every key's rows are visited in ascending global order
// (fixing the float accumulation order), and the pairwise stitch tree
// reproduces the exact first-occurrence order of a serial grouping.
//
// All buffers (cells, shard groups, tree nodes, hashtables) persist across
// firings; only the final output columns are freshly allocated, because
// they escape into result tables and may be shared across queries.

// FusedAgg describes one aggregate column of a fused merge: the
// compensating kind (Sum/Min/Max — Count has already been lowered to Sum
// by MergeKind) and the column type (Int64, Timestamp or Float64).
type FusedAgg struct {
	Kind AggKind
	Typ  vector.Type
}

// Fusible reports whether the fused kernel supports this aggregate shape.
func (a FusedAgg) Fusible() bool {
	switch a.Kind {
	case AggSum, AggMin, AggMax:
	default:
		return false
	}
	switch a.Typ {
	case vector.Int64, vector.Timestamp, vector.Float64:
		return true
	}
	return false
}

func (a FusedAgg) float() bool { return a.Typ == vector.Float64 }

// AggCol is one contiguous part of an aggregate input column, aligned
// row-for-row with the key part it is scattered with. Exactly one of I/F
// is non-nil.
type AggCol struct {
	I []int64
	F []float64
}

// bits returns row i's payload as an int64 bit-carrier (float64 payloads
// travel as their IEEE bits; the accumulate step decodes them).
func (c AggCol) bits(i int) int64 {
	if c.I != nil {
		return c.I[i]
	}
	return int64(math.Float64bits(c.F[i]))
}

// fusedCell buffers the rows one worker scattered toward one shard:
// global positions, keys, and one bit-carrier column per aggregate, in
// ascending row order.
type fusedCell struct {
	pos  []int32
	keys []int64
	vals [][]int64
}

func (c *fusedCell) reset(naggs int) {
	c.pos = c.pos[:0]
	c.keys = c.keys[:0]
	for len(c.vals) < naggs {
		c.vals = append(c.vals, nil)
	}
	c.vals = c.vals[:naggs]
	for i := range c.vals {
		c.vals[i] = c.vals[i][:0]
	}
}

// fusedGroups is one grouped node: first-occurrence global positions
// (ascending), the group keys, and one accumulator column per aggregate.
// Leaves are per-shard grouping results; interior stitch-tree nodes are
// pairwise merges of disjoint-key children.
type fusedGroups struct {
	repr []int32
	keys []int64
	accs [][]int64
}

func (g *fusedGroups) reset(naggs int) {
	g.repr = g.repr[:0]
	g.keys = g.keys[:0]
	for len(g.accs) < naggs {
		g.accs = append(g.accs, nil)
	}
	g.accs = g.accs[:naggs]
	for i := range g.accs {
		g.accs[i] = g.accs[i][:0]
	}
}

// Fused is the reusable state of the fused merge kernel. Zero value is
// ready after Begin.
type Fused struct {
	p, workers int
	keyTyp     vector.Type
	aggs       []FusedAgg

	cells  [][]fusedCell // [worker][shard]
	tables []*GroupTable
	leaves []fusedGroups // per-shard grouping results
	// nodes/spare are the stitch tree's ping-pong levels (pointers into
	// leaves or one of the pools); poolA/poolB own the interior nodes'
	// storage, alternated per level so a pair's destination never aliases
	// a node committed by the previous level.
	nodes []*fusedGroups
	spare []*fusedGroups
	poolA []fusedGroups
	poolB []fusedGroups
	level int

	// direct mode (p == 1): output columns are built in place, skipping
	// scatter, repr bookkeeping and the stitch tree entirely.
	direct    bool
	outKeys   []int64
	outAccs   [][]int64
	lastK     int // previous firing's group count, the capacity hint
	directTbl *GroupTable
}

// NewFused returns an empty fused-merge scratch.
func NewFused() *Fused { return &Fused{} }

// Begin prepares a fused merge of rows with the given shard count, worker
// count, key type and aggregate layout. p == 1 selects the direct mode:
// one grouping pass straight into freshly allocated output columns.
func (f *Fused) Begin(p, workers int, rows int, keyTyp vector.Type, aggs []FusedAgg) {
	if p < 1 {
		p = 1
	}
	if workers < 1 {
		workers = 1
	}
	f.p, f.workers, f.keyTyp = p, workers, keyTyp
	f.aggs = append(f.aggs[:0], aggs...)
	f.direct = p == 1
	hint := f.lastK + f.lastK/8 + 16
	if hint > rows {
		hint = rows
	}
	if f.direct {
		if f.directTbl == nil {
			f.directTbl = NewGroupTable()
		}
		// Size the table by the previous firing's group count, not the row
		// count: steady-state groups are a fraction of the concatenated rows,
		// and the smaller table keeps probes cache-resident. An underestimate
		// costs one grow-rehash, not correctness.
		tblHint := rows
		if f.lastK > 0 && hint < rows {
			tblHint = hint
		}
		f.directTbl.Reset(tblHint)
		// Output columns escape into the result table: fresh per firing.
		f.outKeys = make([]int64, 0, hint)
		f.outAccs = make([][]int64, len(aggs))
		for i := range f.outAccs {
			f.outAccs[i] = make([]int64, 0, hint)
		}
		return
	}
	for len(f.cells) < workers {
		f.cells = append(f.cells, nil)
	}
	for w := 0; w < workers; w++ {
		for len(f.cells[w]) < p {
			f.cells[w] = append(f.cells[w], fusedCell{})
		}
		for s := 0; s < p; s++ {
			f.cells[w][s].reset(len(aggs))
		}
	}
	for len(f.tables) < p {
		f.tables = append(f.tables, NewGroupTable())
	}
	for len(f.leaves) < p {
		f.leaves = append(f.leaves, fusedGroups{})
	}
}

// partitionMul is a distinct odd multiplier (not intHashMul) so the shard
// assignment never correlates with the bucket choice of the per-shard
// GroupTable — correlated hashes would funnel each shard's keys into a few
// buckets.
const partitionMul = 0xBF58476D1CE4E5B9

// shardOfInt64 assigns key k to one of p shards by key value alone, so
// shard contents never depend on the worker schedule.
func shardOfInt64(k int64, p int) int {
	return int((uint64(k) * partitionMul >> 17) % uint64(p))
}

// ScatterRange hashes rows [lo, hi) of one contiguous key part into worker
// w's per-shard cells. base is the global position of the part's row 0;
// aggs holds the part's aggregate inputs aligned with keys. Ranges must be
// scattered in ascending order per worker (core drives one ascending range
// per worker across the parts), keeping every cell sorted by position.
func (f *Fused) ScatterRange(w int, base int32, keys []int64, aggs []AggCol, lo, hi int) {
	cells := f.cells[w]
	p := f.p
	for i := lo; i < hi; i++ {
		k := keys[i]
		c := &cells[shardOfInt64(k, p)]
		c.pos = append(c.pos, base+int32(i))
		c.keys = append(c.keys, k)
		for a := range c.vals {
			c.vals[a] = append(c.vals[a], aggs[a].bits(i))
		}
	}
}

// accumulate folds one row's bit-carrier payload into an accumulator.
func accumulate(kind AggKind, isFloat bool, acc *int64, v int64) {
	if isFloat {
		switch kind {
		case AggSum:
			*acc = int64(math.Float64bits(math.Float64frombits(uint64(*acc)) + math.Float64frombits(uint64(v))))
		case AggMin:
			if math.Float64frombits(uint64(v)) < math.Float64frombits(uint64(*acc)) {
				*acc = v
			}
		case AggMax:
			if math.Float64frombits(uint64(v)) > math.Float64frombits(uint64(*acc)) {
				*acc = v
			}
		}
		return
	}
	switch kind {
	case AggSum:
		*acc += v
	case AggMin:
		if v < *acc {
			*acc = v
		}
	case AggMax:
		if v > *acc {
			*acc = v
		}
	}
}

// GroupShard groups and aggregates shard s's scattered rows in one fused
// pass, reading worker cells in worker order (= ascending global row
// order). Results land in the shard's leaf node.
func (f *Fused) GroupShard(s int) {
	g := &f.leaves[s]
	g.reset(len(f.aggs))
	rows := 0
	for w := 0; w < f.workers; w++ {
		rows += len(f.cells[w][s].pos)
	}
	tbl := f.tables[s]
	tbl.Reset(rows)
	naggs := len(f.aggs)
	for w := 0; w < f.workers; w++ {
		c := &f.cells[w][s]
		if naggs == 1 && !f.aggs[0].float() && f.aggs[0].Kind == AggSum {
			// Dominant shape: one integer sum. Hoist the aggregate
			// dispatch out of the row loop (mirrors groupRangeDirect1).
			vals, acc := c.vals[0], g.accs[0]
			for i, k := range c.keys {
				id, found := tbl.insertInt64(k, int32(len(g.keys)))
				if !found {
					g.repr = append(g.repr, c.pos[i])
					g.keys = append(g.keys, k)
					acc = append(acc, vals[i])
					continue
				}
				acc[id] += vals[i]
			}
			g.accs[0] = acc
			continue
		}
		for i, k := range c.keys {
			id, found := tbl.insertInt64(k, int32(len(g.keys)))
			if !found {
				g.repr = append(g.repr, c.pos[i])
				g.keys = append(g.keys, k)
				for a := 0; a < naggs; a++ {
					g.accs[a] = append(g.accs[a], c.vals[a][i])
				}
				continue
			}
			for a := 0; a < naggs; a++ {
				accumulate(f.aggs[a].Kind, f.aggs[a].float(), &g.accs[a][id], c.vals[a][i])
			}
		}
	}
}

// GroupRangeDirect is the p == 1 fused pass: rows [lo, hi) of one
// contiguous part group and accumulate straight into the output columns
// (first-occurrence order needs no repr bookkeeping — keys append exactly
// when first seen).
func (f *Fused) GroupRangeDirect(keys []int64, aggs []AggCol, lo, hi int) {
	if len(f.aggs) == 1 && f.groupRangeDirect1(keys, aggs[0], lo, hi) {
		return
	}
	tbl := f.directTbl
	naggs := len(f.aggs)
	for i := lo; i < hi; i++ {
		k := keys[i]
		id, found := tbl.insertInt64(k, int32(len(f.outKeys)))
		if !found {
			f.outKeys = append(f.outKeys, k)
			for a := 0; a < naggs; a++ {
				f.outAccs[a] = append(f.outAccs[a], aggs[a].bits(i))
			}
			continue
		}
		for a := 0; a < naggs; a++ {
			accumulate(f.aggs[a].Kind, f.aggs[a].float(), &f.outAccs[a][id], aggs[a].bits(i))
		}
	}
}

// groupRangeDirect1 is GroupRangeDirect specialized for the dominant
// single-aggregate shapes, hoisting the aggregate dispatch (kind, float
// decode, column indirection) out of the per-row loop. Returns false for
// shapes it does not cover, falling back to the generic loop.
func (f *Fused) groupRangeDirect1(keys []int64, col AggCol, lo, hi int) bool {
	tbl := f.directTbl
	outKeys, acc := f.outKeys, f.outAccs[0]
	switch {
	case col.I != nil && f.aggs[0].Kind == AggSum:
		vals := col.I
		for i := lo; i < hi; i++ {
			k := keys[i]
			id, found := tbl.insertInt64(k, int32(len(outKeys)))
			if !found {
				outKeys = append(outKeys, k)
				acc = append(acc, vals[i])
				continue
			}
			acc[id] += vals[i]
		}
	case col.I != nil && f.aggs[0].Kind == AggMin:
		vals := col.I
		for i := lo; i < hi; i++ {
			k := keys[i]
			id, found := tbl.insertInt64(k, int32(len(outKeys)))
			if !found {
				outKeys = append(outKeys, k)
				acc = append(acc, vals[i])
				continue
			}
			if vals[i] < acc[id] {
				acc[id] = vals[i]
			}
		}
	case col.I != nil && f.aggs[0].Kind == AggMax:
		vals := col.I
		for i := lo; i < hi; i++ {
			k := keys[i]
			id, found := tbl.insertInt64(k, int32(len(outKeys)))
			if !found {
				outKeys = append(outKeys, k)
				acc = append(acc, vals[i])
				continue
			}
			if vals[i] > acc[id] {
				acc[id] = vals[i]
			}
		}
	case col.F != nil && f.aggs[0].Kind == AggSum:
		vals := col.F
		for i := lo; i < hi; i++ {
			k := keys[i]
			id, found := tbl.insertInt64(k, int32(len(outKeys)))
			if !found {
				outKeys = append(outKeys, k)
				acc = append(acc, int64(math.Float64bits(vals[i])))
				continue
			}
			acc[id] = int64(math.Float64bits(math.Float64frombits(uint64(acc[id])) + vals[i]))
		}
	default:
		return false
	}
	f.outKeys, f.outAccs[0] = outKeys, acc
	return true
}

// mergeNodes stitches two disjoint-key nodes into dst by ascending
// first-occurrence position — the exact interleaving a serial grouping
// over the union of their rows would have produced. No key comparison or
// re-accumulation happens: keys never span nodes.
func mergeNodes(dst, a, b *fusedGroups, naggs int) {
	dst.reset(naggs)
	i, j := 0, 0
	for i < len(a.repr) && j < len(b.repr) {
		if a.repr[i] < b.repr[j] {
			dst.repr = append(dst.repr, a.repr[i])
			dst.keys = append(dst.keys, a.keys[i])
			for x := 0; x < naggs; x++ {
				dst.accs[x] = append(dst.accs[x], a.accs[x][i])
			}
			i++
		} else {
			dst.repr = append(dst.repr, b.repr[j])
			dst.keys = append(dst.keys, b.keys[j])
			for x := 0; x < naggs; x++ {
				dst.accs[x] = append(dst.accs[x], b.accs[x][j])
			}
			j++
		}
	}
	appendTail := func(n *fusedGroups, at int) {
		dst.repr = append(dst.repr, n.repr[at:]...)
		dst.keys = append(dst.keys, n.keys[at:]...)
		for x := 0; x < naggs; x++ {
			dst.accs[x] = append(dst.accs[x], n.accs[x][at:]...)
		}
	}
	appendTail(a, i)
	appendTail(b, j)
}

// BeginStitch seeds the stitch tree with the shard leaves and returns the
// number of pairwise merges of the first level (0 when p <= 2: Finish
// handles one or two nodes directly).
func (f *Fused) BeginStitch() int {
	f.nodes = f.nodes[:0]
	for s := 0; s < f.p; s++ {
		f.nodes = append(f.nodes, &f.leaves[s])
	}
	f.level = 0
	return f.prepareLevel()
}

// prepareLevel sizes the spare node list for the next level and returns
// its pair count; the tree stops reducing at two nodes (Finish merges
// those straight into the fresh output columns, saving one interior copy
// level).
func (f *Fused) prepareLevel() int {
	if len(f.nodes) <= 2 {
		return 0
	}
	pairs := len(f.nodes) / 2
	if cap(f.spare) < pairs+1 {
		f.spare = make([]*fusedGroups, 0, pairs+1)
	}
	f.spare = f.spare[:pairs]
	pool := &f.poolA
	if f.level%2 == 1 {
		pool = &f.poolB
	}
	for len(*pool) < pairs {
		*pool = append(*pool, fusedGroups{})
	}
	return pairs
}

// StitchPair merges level pair i (nodes 2i and 2i+1). Pairs are
// independent: they touch disjoint nodes and disjoint pool entries, so a
// worker pool may run them concurrently. Destinations come from the
// level-parity pool, which never aliases the previous level's output.
func (f *Fused) StitchPair(i int) {
	pool := f.poolA
	if f.level%2 == 1 {
		pool = f.poolB
	}
	dst := &pool[i]
	mergeNodes(dst, f.nodes[2*i], f.nodes[2*i+1], len(f.aggs))
	f.spare[i] = dst
}

// CommitLevel installs the merged level (plus a straggler node when the
// count was odd) and returns the next level's pair count (0 = ready for
// Finish). nodes and spare keep permanently distinct backing arrays —
// swapping the slices would alias them, and then a pair writing
// spare[i] would race a concurrent pair still reading nodes[i].
func (f *Fused) CommitLevel() int {
	if len(f.nodes)%2 == 1 {
		f.spare = append(f.spare, f.nodes[len(f.nodes)-1])
	}
	f.nodes = append(f.nodes[:0], f.spare...)
	f.spare = f.spare[:0]
	f.level++
	return f.prepareLevel()
}

// Finish merges the remaining one or two nodes into freshly allocated
// output columns and returns the key column plus one column per
// aggregate, in first-occurrence order. Direct mode wraps the columns
// built by GroupRangeDirect.
func (f *Fused) Finish() (*vector.Vector, []*vector.Vector) {
	if f.direct {
		f.lastK = len(f.outKeys)
		keys, accs := f.outKeys, f.outAccs
		f.outKeys, f.outAccs = nil, nil
		return f.wrap(keys, accs)
	}
	var keys []int64
	var accs [][]int64
	switch len(f.nodes) {
	case 1:
		n := f.nodes[0]
		keys = append(make([]int64, 0, len(n.keys)), n.keys...)
		accs = make([][]int64, len(f.aggs))
		for a := range accs {
			accs[a] = append(make([]int64, 0, len(n.accs[a])), n.accs[a]...)
		}
	case 2:
		a, b := f.nodes[0], f.nodes[1]
		total := len(a.keys) + len(b.keys)
		keys = make([]int64, 0, total)
		accs = make([][]int64, len(f.aggs))
		for x := range accs {
			accs[x] = make([]int64, 0, total)
		}
		i, j := 0, 0
		for i < len(a.repr) && j < len(b.repr) {
			var n *fusedGroups
			var at int
			if a.repr[i] < b.repr[j] {
				n, at = a, i
				i++
			} else {
				n, at = b, j
				j++
			}
			keys = append(keys, n.keys[at])
			for x := range accs {
				accs[x] = append(accs[x], n.accs[x][at])
			}
		}
		for ; i < len(a.repr); i++ {
			keys = append(keys, a.keys[i])
			for x := range accs {
				accs[x] = append(accs[x], a.accs[x][i])
			}
		}
		for ; j < len(b.repr); j++ {
			keys = append(keys, b.keys[j])
			for x := range accs {
				accs[x] = append(accs[x], b.accs[x][j])
			}
		}
	default:
		panic("algebra: Finish before the stitch tree reduced to <= 2 nodes")
	}
	f.lastK = len(keys)
	return f.wrap(keys, accs)
}

// wrap turns raw key/accumulator columns into typed vectors. The slices
// are freshly allocated per firing, so wrapping transfers ownership with
// no copy.
func (f *Fused) wrap(keys []int64, accs [][]int64) (*vector.Vector, []*vector.Vector) {
	out := make([]*vector.Vector, len(f.aggs))
	for a, ag := range f.aggs {
		if ag.Typ == vector.Float64 {
			fs := make([]float64, len(accs[a]))
			for i, b := range accs[a] {
				fs[i] = math.Float64frombits(uint64(b))
			}
			out[a] = vector.FromFloat64(fs)
		} else {
			out[a] = intVector(ag.Typ, accs[a])
		}
	}
	return intVector(f.keyTyp, keys), out
}

// intVector wraps an int64 payload as an Int64 or Timestamp column.
func intVector(t vector.Type, vals []int64) *vector.Vector {
	if t == vector.Timestamp {
		return vector.FromTimestamp(vals)
	}
	return vector.FromInt64(vals)
}
