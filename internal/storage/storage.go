package storage

import (
	"errors"

	"datacell/internal/vector"
)

// ErrNotFound reports a Fetch for a segment the store does not hold.
var ErrNotFound = errors.New("storage: segment not found")

// SegmentData is one segment's contents as handed back by a store: the
// column payloads in schema order, the arrival timestamps, and the
// segment's position in the stream's global row space.
type SegmentData struct {
	Base   int64            // absolute row offset of the first row
	Rows   int              // row count
	Cols   []*vector.Vector // one vector per schema column
	TS     []int64          // arrival timestamps, len == Rows
	Sealed bool             // true if the segment carries a valid footer
}

// Store is the per-stream persistence backend the basket writes through.
// All methods are invoked under the basket's log lock, so implementations
// need no internal ordering guarantees beyond being safe for that single
// caller; StreamLog still locks internally so tests can drive it directly.
//
// The call protocol mirrors the basket's segment lifecycle: AppendChunk is
// called for every batch landing in the mutable tail (base identifies the
// tail segment), Seal exactly once when that tail freezes, Fetch when a
// reader needs an evicted segment's columns back, and Drop when the
// reclamation horizon passes a sealed segment entirely.
type Store interface {
	// AppendChunk persists one append batch destined for the tail segment
	// starting at absolute row offset base. Cols and ts alias the caller's
	// buffers and must not be retained.
	AppendChunk(base int64, cols []*vector.Vector, ts []int64) error
	// Seal marks the segment at base complete with the given row count.
	// After Seal returns, the segment must survive a crash (a durable
	// store syncs here) and Fetch(base) must succeed until Drop passes it.
	Seal(base int64, rows int) error
	// Fetch loads the segment at base back into memory.
	Fetch(base int64) (SegmentData, error)
	// Durable reports whether sealed segments survive eviction and
	// process death. Only durable stores permit the basket to evict a
	// segment's RAM copy.
	Durable() bool
	// Drop discards every sealed segment whose rows all precede the
	// absolute row offset below (base+rows <= below).
	Drop(below int64) error
	// Files reports how many segment files the store holds on disk.
	Files() int
	// Close releases the store's resources. The basket does not write
	// after Close.
	Close() error
}

// Memory is the no-op store: segments live only in the basket's RAM,
// exactly the engine's historical behavior. Fetch always fails because
// nothing is ever evicted from a memory-backed basket.
type Memory struct{}

// AppendChunk discards the chunk.
func (Memory) AppendChunk(int64, []*vector.Vector, []int64) error { return nil }

// Seal is a no-op.
func (Memory) Seal(int64, int) error { return nil }

// Fetch always fails: a memory store never holds evicted segments.
func (Memory) Fetch(int64) (SegmentData, error) { return SegmentData{}, ErrNotFound }

// Durable reports false: eviction is forbidden.
func (Memory) Durable() bool { return false }

// Drop is a no-op.
func (Memory) Drop(int64) error { return nil }

// Files reports 0: a memory store writes no files.
func (Memory) Files() int { return 0 }

// Close is a no-op.
func (Memory) Close() error { return nil }
