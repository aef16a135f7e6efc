// Package storage is the persistent segment store behind the basket
// segment log: sealed segments written to disk in the columnar layout with
// a checksummed footer, a torn-tail-tolerant recovery scan, and a small
// JSON manifest persisting the engine catalog (stream/table DDL plus
// standing-query statements and options) so a crashed process can replay
// the log and restart with identical continuous-query state.
//
// # Backend contract
//
// Store is the pluggable per-stream backend interface the basket writes
// through. Two implementations exist: Memory (a no-op — today's purely
// in-RAM behavior) and StreamLog (one directory of segment files per
// stream). The basket calls AppendChunk for every ingest batch landing in
// the mutable tail, Seal exactly once when a tail reaches the seal
// threshold, and Fetch when a cursor reads a segment whose column payloads
// were evicted from RAM. Durable() gates eviction: only a store that can
// fetch a segment back may see its RAM copy dropped.
//
// Drop(below) deletes the sealed files whose rows all precede below. A
// StreamLog never lists its directory to find them: it keeps an ascending
// in-memory index of its sealed files and their row counts — built by
// Recover from the files it keeps, appended to by each Seal whose fsync
// succeeded — and Drop walks only the index prefix whose rows all precede
// below, so it costs O(files removed), not O(files on disk); a floor that
// did not move, or sits inside a file, costs no I/O. Every file it deletes
// still has its footer read and checked (base matches, base+rows <=
// below); a file that fails the check or whose removal errors stays on
// disk and in the index for the next Drop to retry. Files() reports the
// count of segment files held, tail included.
//
// # On-disk layout
//
//	<root>/MANIFEST.json              catalog + standing queries (atomic rename)
//	<root>/streams/<name>/seg-<base>.seg   one file per segment
//
// A segment file is a sequence of checksummed records — one per append
// chunk — followed, once sealed, by a fixed-size checksummed footer:
//
//	record: u32 bodyLen | u32 crc32c(body) | body
//	body:   u32 rows | col payloads in schema order | rows×8 arrival ts
//	footer: "DCSEGFTR" | u32 version | u64 base | u32 rows | u32 records |
//	        u32 schemaHash | u32 crc32c(previous 32 bytes)
//
// Column payloads, and the arrival timestamps after them, use the one
// column codec defined in internal/vector/codec.go, which the wire block
// shares.
//
// # Crash consistency
//
// Seal syncs the file before the next segment's first record can be
// written, so a valid successor file implies a durable predecessor.
// Recovery walks the files in base order: every file with a valid footer
// and matching record checksums loads as a sealed immutable segment; the
// first file that fails validation (missing footer, torn record, torn
// footer, base discontinuity) is truncated to its last whole record and
// becomes the mutable tail again, and any files after it are discarded.
// Data loss is therefore bounded to the unsynced suffix of the tail, and
// always lands on a record (= append batch) boundary — a recovered log is
// a strict prefix of the crashed one, never a corrupted interior.
package storage
