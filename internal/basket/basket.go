package basket

import (
	"fmt"
	"sync"

	"datacell/internal/catalog"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// DefaultSealRows is the tail-segment size at which the log seals: large
// enough that typical basic windows fall inside one segment (window views
// stay zero-copy), small enough that reclamation frees memory promptly.
const DefaultSealRows = 8192

// segment is one contiguous run of the log. base is the absolute position
// of its first tuple; a sealed segment is immutable and safe to read
// without the log lock.
//
// With a durable store attached, a sealed segment's column payloads may be
// evicted (cols == nil, "cold") and fetched back on demand; the arrival
// timestamps always stay resident — at 8 bytes/row they are cheap, and
// keeping them makes watermark counting (CountUntilLocked) and length
// bookkeeping work without touching the disk.
type segment struct {
	cols      []*vector.Vector // nil when evicted
	ts        []int64
	base      int64
	bytes     int64 // payload footprint, accounted at seal/fetch time
	sealed    bool
	persisted bool // the store holds a sealed copy; eviction is allowed
}

func (s *segment) len() int { return len(s.ts) }

func (s *segment) cold() bool { return s.cols == nil }

// Basket is a per-stream shared segment log. All mutating and
// position-dependent accesses happen between Lock/Unlock; the *Locked
// methods document that requirement in their name.
type Basket struct {
	mu       sync.Mutex
	name     string
	schema   catalog.Schema
	sealRows int

	// segs is the live chain, oldest first; the last entry is the mutable
	// tail (never sealed). Invariant: len(segs) >= 1.
	segs []*segment
	// head is the absolute position of the first retained tuple
	// (== segs[0].base); appended counts all tuples ever appended, so the
	// retained range is [head, appended).
	head     int64
	appended int64

	cursors []*Cursor

	// store persists sealed segments; storage.Memory{} means RAM-only
	// (the historical behavior). ramBudget caps the resident payload
	// bytes of sealed persisted segments (0 = unlimited); the mutable
	// tail never counts against it because it cannot be evicted.
	store         storage.Store
	ramBudget     int64
	residentBytes int64
	fetches       int64
	evictions     int64
}

// New creates an empty segment log with the default seal threshold.
func New(name string, schema catalog.Schema) *Basket {
	return NewWithSeal(name, schema, DefaultSealRows)
}

// NewWithSeal creates an empty segment log sealing segments at sealRows
// tuples (values < 1 fall back to DefaultSealRows).
func NewWithSeal(name string, schema catalog.Schema, sealRows int) *Basket {
	return NewStored(name, schema, sealRows, storage.Memory{}, 0)
}

// NewStored creates an empty segment log backed by a persistent store.
// Sealed segments are written through to the store; when the store is
// durable, clean cold segments are evicted once resident sealed payloads
// exceed ramBudget bytes (0 = never evict).
func NewStored(name string, schema catalog.Schema, sealRows int, store storage.Store, ramBudget int64) *Basket {
	if sealRows < 1 {
		sealRows = DefaultSealRows
	}
	if store == nil {
		store = storage.Memory{}
	}
	b := &Basket{name: name, schema: schema, sealRows: sealRows, store: store, ramBudget: ramBudget}
	b.segs = []*segment{b.newSegment(0)}
	return b
}

// Restore rebuilds a segment log from recovered store segments (in base
// order, the last possibly unsealed — it becomes the mutable tail). The
// basket resumes with head/appended counters continuing the crashed run's
// absolute row space.
func Restore(name string, schema catalog.Schema, sealRows int, store storage.Store, ramBudget int64, recovered []storage.SegmentData) *Basket {
	if sealRows < 1 {
		sealRows = DefaultSealRows
	}
	if store == nil {
		store = storage.Memory{}
	}
	b := &Basket{name: name, schema: schema, sealRows: sealRows, store: store, ramBudget: ramBudget}
	for _, sd := range recovered {
		s := &segment{cols: sd.Cols, ts: sd.TS, base: sd.Base, sealed: sd.Sealed, persisted: sd.Sealed}
		if s.sealed {
			s.bytes = payloadBytes(s.cols, s.ts)
			b.residentBytes += s.bytes
		}
		b.segs = append(b.segs, s)
	}
	if len(b.segs) == 0 {
		b.segs = []*segment{b.newSegment(0)}
	} else {
		b.head = b.segs[0].base
		last := b.segs[len(b.segs)-1]
		b.appended = last.base + int64(last.len())
		if last.sealed {
			// All recovered segments sealed: open a fresh tail after them.
			b.segs = append(b.segs, b.newSegment(b.appended))
		}
	}
	b.evictLocked(nil)
	return b
}

func (b *Basket) newSegment(base int64) *segment {
	s := &segment{base: base, cols: make([]*vector.Vector, b.schema.Arity())}
	for i, c := range b.schema.Cols {
		s.cols[i] = vector.New(c.Type, 0)
	}
	return s
}

// SetSealRows retunes the seal threshold for segments sealed from now on
// (values < 1 fall back to DefaultSealRows). Useful to trade reclamation
// granularity against view contiguity per stream.
func (b *Basket) SetSealRows(n int) {
	if n < 1 {
		n = DefaultSealRows
	}
	b.mu.Lock()
	b.sealRows = n
	b.mu.Unlock()
}

// Name returns the log name.
func (b *Basket) Name() string { return b.name }

// Schema returns the log schema.
func (b *Basket) Schema() catalog.Schema { return b.schema }

// Lock acquires the log for a receptor or factory critical section.
func (b *Basket) Lock() { b.mu.Lock() }

// Unlock releases the log.
func (b *Basket) Unlock() { b.mu.Unlock() }

func (b *Basket) tail() *segment { return b.segs[len(b.segs)-1] }

// payloadBytes estimates the RAM footprint of a segment's column payloads
// plus its timestamp run (string headers count 16 bytes + data).
func payloadBytes(cols []*vector.Vector, ts []int64) int64 {
	n := int64(8 * len(ts))
	for _, c := range cols {
		switch c.Type() {
		case vector.Int64, vector.Timestamp, vector.Float64:
			n += 8 * int64(c.Len())
		case vector.Bool:
			n += int64(c.Len())
		case vector.Str:
			for _, s := range c.Strs() {
				n += 16 + int64(len(s))
			}
		}
	}
	return n
}

// maybeSealLocked seals the tail once it reaches the threshold — writing
// it through to the store — opens a fresh tail, and gives reclamation and
// eviction a chance to run. A store error leaves the segment sealed in
// RAM but unpersisted (never evicted), so reads keep working; the error
// surfaces to the appender.
func (b *Basket) maybeSealLocked() error {
	t := b.tail()
	if t.len() < b.sealRows {
		return nil
	}
	t.sealed = true
	t.bytes = payloadBytes(t.cols, t.ts)
	b.residentBytes += t.bytes
	err := b.store.Seal(t.base, t.len())
	if err == nil {
		t.persisted = true
	} else {
		err = fmt.Errorf("basket %s: seal segment %d: %w", b.name, t.base, err)
	}
	b.segs = append(b.segs, b.newSegment(b.appended))
	b.reclaimLocked()
	b.evictLocked(nil)
	return err
}

// evictLocked drops the column payloads of resident sealed persisted
// segments, oldest first, until the resident footprint fits the RAM
// budget. protect (the segment just fetched for an in-flight read) and
// the tail are never evicted. No-op without a durable store or budget.
func (b *Basket) evictLocked(protect *segment) {
	if b.ramBudget <= 0 || !b.store.Durable() {
		return
	}
	for _, s := range b.segs {
		if b.residentBytes <= b.ramBudget {
			return
		}
		if s == protect || !s.sealed || !s.persisted || s.cold() {
			continue
		}
		s.cols = nil
		b.residentBytes -= s.bytes
		b.evictions++
	}
}

// fetchLocked loads a cold segment's columns back from the store. The
// read happens under the log lock — a deliberate tradeoff: cold fetches
// are rare (long windows touching spilled history) and keeping them under
// the lock preserves the invariant that a built View is always backed by
// resident payloads. A fetch failure panics: the store accepted Seal, so
// the segment's durability was promised.
func (b *Basket) fetchLocked(s *segment) {
	sd, err := b.store.Fetch(s.base)
	if err != nil {
		panic(fmt.Sprintf("basket %s: fetch of persisted segment %d failed: %v", b.name, s.base, err))
	}
	if sd.Rows != s.len() {
		panic(fmt.Sprintf("basket %s: segment %d fetched %d rows, want %d", b.name, s.base, sd.Rows, s.len()))
	}
	s.cols = sd.Cols
	b.residentBytes += s.bytes
	b.fetches++
	b.evictLocked(s)
}

// minHorizonLocked returns the smallest cursor position — the oldest tuple
// any subscriber may still read. With no cursors everything already
// appended is reclaimable.
func (b *Basket) minHorizonLocked() int64 {
	min := b.appended
	for _, c := range b.cursors {
		if c.pos < min {
			min = c.pos
		}
	}
	return min
}

// minRetainLocked returns the oldest absolute offset the persistent store
// must keep. Crash recovery replays each standing query from its
// registration offset (c.start), which trails its live read position, so
// the store retains back to the earliest live registration — the
// no-checkpoint tradeoff: disk history grows until a query deregisters.
// With no cursors the store only needs what RAM still retains.
func (b *Basket) minRetainLocked() int64 {
	if len(b.cursors) == 0 {
		return b.head
	}
	min := b.cursors[0].start
	for _, c := range b.cursors[1:] {
		if c.start < min {
			min = c.start
		}
	}
	return min
}

// reclaimLocked drops whole sealed segments entirely below the minimum
// cursor horizon. The tail is never dropped, and views cut earlier stay
// valid — they alias the segment payloads, which outlive the chain entry.
func (b *Basket) reclaimLocked() {
	min := b.minHorizonLocked()
	drop := 0
	for drop < len(b.segs)-1 {
		s := b.segs[drop]
		if !s.sealed || s.base+int64(s.len()) > min {
			break
		}
		drop++
	}
	if drop > 0 {
		for _, s := range b.segs[:drop] {
			if !s.cold() {
				b.residentBytes -= s.bytes
			}
		}
		// Re-slice via copy so the dropped segment pointers are released
		// to the GC instead of lingering in the backing array.
		b.segs = append([]*segment(nil), b.segs[drop:]...)
		b.head = b.segs[0].base
		// Best-effort: trim the store to the replay floor (not the RAM
		// head — recovery re-reads from registration offsets). A failure
		// only leaves stale files, which the store keeps indexed for the
		// next reclaim's Drop to retry and recovery tolerates.
		_ = b.store.Drop(b.minRetainLocked())
	}
}

// AppendRowLocked appends one tuple with the given arrival timestamp. It
// lands through the columnar path so the store sees one record per row;
// batch ingest (AppendColumnsLocked) amortizes that per-record overhead.
func (b *Basket) AppendRowLocked(vals []vector.Value, ts int64) error {
	if len(vals) != b.schema.Arity() {
		return fmt.Errorf("basket %s: tuple arity %d, want %d", b.name, len(vals), b.schema.Arity())
	}
	cols := make([]*vector.Vector, len(vals))
	for i, v := range vals {
		want := b.schema.Cols[i].Type
		if v.Typ != want && !(vector.IntKind(v.Typ) && vector.IntKind(want)) {
			return fmt.Errorf("basket %s: column %s expects %s, got %s", b.name, b.schema.Cols[i].Name, want, v.Typ)
		}
		cols[i] = vector.New(want, 1)
		cols[i].AppendValue(v)
	}
	return b.AppendColumnsLocked(cols, []int64{ts})
}

// AppendColumnsLocked appends a batch in columnar form — the receptor's
// one-copy ingest path: the batch lands in the shared tail once, no matter
// how many cursors read the log. All columns must have equal length and
// match the schema types (Int64 and Timestamp are interchangeable). ts
// supplies per-tuple arrival timestamps (len must match, or nil for
// all-zero).
func (b *Basket) AppendColumnsLocked(cols []*vector.Vector, ts []int64) error {
	if len(cols) != b.schema.Arity() {
		return fmt.Errorf("basket %s: batch arity %d, want %d", b.name, len(cols), b.schema.Arity())
	}
	if len(cols) == 0 {
		return nil
	}
	n := cols[0].Len()
	for i, c := range cols {
		if c.Len() != n {
			return fmt.Errorf("basket %s: ragged batch (%d vs %d)", b.name, c.Len(), n)
		}
		want := b.schema.Cols[i].Type
		if got := c.Type(); got != want && !(vector.IntKind(got) && vector.IntKind(want)) {
			return fmt.Errorf("basket %s: column %s expects %s, got %s",
				b.name, b.schema.Cols[i].Name, want, got)
		}
	}
	if ts != nil && len(ts) != n {
		return fmt.Errorf("basket %s: %d timestamps for %d tuples", b.name, len(ts), n)
	}
	if n == 0 {
		return nil
	}
	// Split the batch at seal boundaries so segments stay near sealRows
	// even when one batch is much larger than the threshold. Each slice
	// also lands in the store as one record, so the on-disk segment files
	// mirror the in-memory chain chunk for chunk.
	var firstErr error
	off := 0
	for off < n {
		// SetSealRows may have shrunk the threshold below the current
		// tail occupancy; seal first so room below is always positive.
		if err := b.maybeSealLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		t := b.tail()
		room := b.sealRows - t.len()
		take := n - off
		if take > room {
			take = room
		}
		chunk := make([]*vector.Vector, len(cols))
		for i, c := range cols {
			chunk[i] = c.Slice(off, off+take)
			t.cols[i].AppendVector(chunk[i])
		}
		if ts == nil {
			for k := 0; k < take; k++ {
				t.ts = append(t.ts, 0)
			}
		} else {
			t.ts = append(t.ts, ts[off:off+take]...)
		}
		if err := b.store.AppendChunk(t.base, chunk, t.ts[t.len()-take:]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("basket %s: persist chunk at %d: %w", b.name, t.base, err)
		}
		b.appended += int64(take)
		off += take
		if err := b.maybeSealLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Appended returns the total number of tuples ever appended.
func (b *Basket) Appended() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appended
}

// Dropped returns the number of tuples physically reclaimed so far.
func (b *Basket) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.head
}

// RetainedLocked returns the number of tuples currently held by the log.
func (b *Basket) RetainedLocked() int { return int(b.appended - b.head) }

// Retained locks and returns the number of tuples currently held.
func (b *Basket) Retained() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.RetainedLocked()
}

// SegmentsLocked returns the number of live segments (including the tail).
func (b *Basket) SegmentsLocked() int { return len(b.segs) }

// Segments locks and returns the number of live segments.
func (b *Basket) Segments() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.segs)
}

// Cursors returns the number of registered cursors.
func (b *Basket) Cursors() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.cursors)
}

// SetRAMBudget retunes the resident-payload cap (0 = unlimited) and
// evicts immediately if the new budget is already exceeded.
func (b *Basket) SetRAMBudget(bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ramBudget = bytes
	b.evictLocked(nil)
}

// StorageStats is a point-in-time snapshot of one log's residency state.
type StorageStats struct {
	Segments      int   // live segments including the tail
	Cold          int   // sealed segments currently evicted to the store
	ResidentBytes int64 // payload bytes of resident sealed segments
	Fetches       int64 // cold segments read back from the store
	Evictions     int64 // segments whose payloads were dropped under budget
	Files         int   // segment files the store holds on disk
	Durable       bool  // the store persists sealed segments
}

// StorageStats returns residency and spill counters for this log.
func (b *Basket) StorageStats() StorageStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := StorageStats{
		Segments:      len(b.segs),
		ResidentBytes: b.residentBytes,
		Fetches:       b.fetches,
		Evictions:     b.evictions,
		Files:         b.store.Files(),
		Durable:       b.store.Durable(),
	}
	for _, s := range b.segs {
		if s.cold() {
			st.Cold++
		}
	}
	return st
}

// NewCursorLocked registers a new reader positioned at the current end of
// the log: a freshly subscribed query sees only tuples appended from now
// on, exactly like a freshly created private basket did.
func (b *Basket) NewCursorLocked() *Cursor {
	c := &Cursor{log: b, pos: b.appended, start: b.appended}
	b.cursors = append(b.cursors, c)
	return c
}

// NewCursor locks and registers a new reader at the end of the log.
func (b *Basket) NewCursor() *Cursor {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.NewCursorLocked()
}

// NewCursorAtLocked registers a reader at an explicit absolute position,
// clamped to the retained range [head, appended]. Recovery uses it to
// re-wire a standing query's cursor at its persisted start offset; if the
// log was partially reclaimed or lost a torn tail, the cursor lands on
// the nearest retained tuple.
func (b *Basket) NewCursorAtLocked(pos int64) *Cursor {
	if pos < b.head {
		pos = b.head
	}
	if pos > b.appended {
		pos = b.appended
	}
	c := &Cursor{log: b, pos: pos, start: pos}
	b.cursors = append(b.cursors, c)
	return c
}

// NewCursorAt locks and registers a reader at an absolute position.
func (b *Basket) NewCursorAt(pos int64) *Cursor {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.NewCursorAtLocked(pos)
}

// locate returns the index of the segment containing absolute position
// pos. pos must lie in [head, appended]; the append position maps to the
// tail.
func (b *Basket) locate(pos int64) int {
	// Linear from the back: cursors cluster near the tail and chains are
	// short (reclamation trims the head).
	for i := len(b.segs) - 1; i > 0; i-- {
		if pos >= b.segs[i].base {
			return i
		}
	}
	return 0
}

// Cursor is one query's read handle over a shared segment log: pos is the
// absolute position of the first tuple the query has not yet expired (its
// retain horizon). Everything in [pos, appended) is visible. Cursor
// methods with the *Locked suffix require the log lock (Cursor.Lock).
type Cursor struct {
	log   *Basket
	pos   int64
	start int64 // registration offset, for Expired accounting
	// closed marks a deregistered cursor; its horizon no longer pins
	// segments.
	closed bool
}

// Lock acquires the underlying log.
func (c *Cursor) Lock() { c.log.mu.Lock() }

// Unlock releases the underlying log.
func (c *Cursor) Unlock() { c.log.mu.Unlock() }

// Log returns the shared segment log this cursor reads.
func (c *Cursor) Log() *Basket { return c.log }

// LenLocked returns the number of tuples visible to this cursor. A closed
// cursor sees nothing: its horizon no longer pins segments, so reads
// through it could otherwise hit reclaimed ranges.
func (c *Cursor) LenLocked() int {
	if c.closed {
		return 0
	}
	return int(c.log.appended - c.pos)
}

// Len locks and returns the number of visible tuples.
func (c *Cursor) Len() int {
	c.Lock()
	defer c.Unlock()
	return c.LenLocked()
}

// PosLocked returns the cursor's absolute retain horizon.
func (c *Cursor) PosLocked() int64 { return c.pos }

// ViewLocked returns a View of the cursor-relative row range [lo, hi).
// The view aliases segment storage and remains valid after the lock is
// released, after further appends, and after segment reclamation — sealed
// segments are immutable and the tail is append-only.
func (c *Cursor) ViewLocked(lo, hi int) View {
	if lo < 0 || hi < lo || hi > c.LenLocked() {
		panic(fmt.Sprintf("basket %s: view [%d,%d) of %d", c.log.name, lo, hi, c.LenLocked()))
	}
	v := View{n: hi - lo, cols: make([]vector.View, c.log.schema.Arity())}
	for i, col := range c.log.schema.Cols {
		v.cols[i] = vector.NewView(col.Type)
	}
	if hi == lo {
		return v
	}
	absLo, absHi := c.pos+int64(lo), c.pos+int64(hi)
	for si := c.log.locate(absLo); si < len(c.log.segs); si++ {
		s := c.log.segs[si]
		if s.base >= absHi {
			break
		}
		if s.cold() {
			c.log.fetchLocked(s)
		}
		slo, shi := int64(0), int64(s.len())
		if absLo > s.base {
			slo = absLo - s.base
		}
		if absHi < s.base+int64(s.len()) {
			shi = absHi - s.base
		}
		for i := range v.cols {
			v.cols[i] = v.cols[i].Append(s.cols[i].Slice(int(slo), int(shi)))
		}
		v.ts = append(v.ts, s.ts[slo:shi])
	}
	return v
}

// TimestampsLocked returns the arrival timestamps of cursor-relative rows
// [lo, hi): zero-copy when the range lies in one segment, a materialized
// copy when it spans a boundary. Timestamps stay resident even for
// evicted segments, so this never touches the store.
func (c *Cursor) TimestampsLocked(lo, hi int) []int64 {
	if lo < 0 || hi < lo || hi > c.LenLocked() {
		panic(fmt.Sprintf("basket %s: timestamps [%d,%d) of %d", c.log.name, lo, hi, c.LenLocked()))
	}
	if hi == lo {
		return nil
	}
	var parts [][]int64
	absLo, absHi := c.pos+int64(lo), c.pos+int64(hi)
	for si := c.log.locate(absLo); si < len(c.log.segs); si++ {
		s := c.log.segs[si]
		if s.base >= absHi {
			break
		}
		slo, shi := int64(0), int64(s.len())
		if absLo > s.base {
			slo = absLo - s.base
		}
		if absHi < s.base+int64(s.len()) {
			shi = absHi - s.base
		}
		parts = append(parts, s.ts[slo:shi])
	}
	if len(parts) == 1 {
		return parts[0]
	}
	out := make([]int64, 0, hi-lo)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// CountUntilLocked returns how many visible tuples have timestamp < cut.
// Tuples arrive in timestamp order, so this is a prefix length.
func (c *Cursor) CountUntilLocked(cut int64) int {
	if c.closed {
		return 0
	}
	total := 0
	start := c.log.locate(c.pos)
	for si := start; si < len(c.log.segs); si++ {
		s := c.log.segs[si]
		off := 0
		if si == start && c.pos > s.base {
			off = int(c.pos - s.base)
		}
		ts := s.ts[off:]
		if len(ts) == 0 {
			continue
		}
		if ts[len(ts)-1] < cut {
			// Whole (rest of the) segment is below the cut.
			total += len(ts)
			continue
		}
		// Binary search within this segment and stop.
		lo, hi := 0, len(ts)
		for lo < hi {
			mid := (lo + hi) / 2
			if ts[mid] < cut {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return total + lo
	}
	return total
}

// AdvanceLocked expires the first n visible tuples by moving the cursor's
// horizon forward, then reclaims any segments no cursor can still reach.
// There is no per-query data deletion: expiration is O(1) bookkeeping plus
// occasional whole-segment drops.
func (c *Cursor) AdvanceLocked(n int) {
	if n <= 0 || c.closed {
		return
	}
	if max := c.LenLocked(); n > max {
		n = max
	}
	c.pos += int64(n)
	c.log.reclaimLocked()
}

// Expired returns how many tuples this cursor has expired so far.
func (c *Cursor) Expired() int64 {
	c.Lock()
	defer c.Unlock()
	return c.pos - c.start
}

// CloseLocked deregisters the cursor so its horizon no longer pins
// segments, and reclaims immediately.
func (c *Cursor) CloseLocked() {
	if c.closed {
		return
	}
	c.closed = true
	for i, cc := range c.log.cursors {
		if cc == c {
			c.log.cursors = append(c.log.cursors[:i:i], c.log.cursors[i+1:]...)
			break
		}
	}
	c.log.reclaimLocked()
}

// Close locks and deregisters the cursor.
func (c *Cursor) Close() {
	c.Lock()
	defer c.Unlock()
	c.CloseLocked()
}

// View is a consistent snapshot of one cursor's row range across the
// segment chain: per-column multi-part vector views plus the parallel
// arrival-timestamp runs. Views stay valid after the log lock is released
// (see Cursor.ViewLocked).
type View struct {
	cols []vector.View
	ts   [][]int64
	n    int
}

// Len returns the number of rows in the view.
func (v View) Len() int { return v.n }

// ColViews returns the per-column multi-part views (one per schema
// column), suitable for core.Runtime window plumbing.
func (v View) ColViews() []vector.View { return v.cols }

// Cols flattens the view into per-column vectors: zero-copy when the range
// lies inside a single segment, materialized when it spans boundaries.
func (v View) Cols() []*vector.Vector { return vector.Cols(v.cols) }
