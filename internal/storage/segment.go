package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"datacell/internal/catalog"
	"datacell/internal/vector"
)

// Segment file byte layout (all integers little-endian):
//
//	file   = record* footer?
//	record = u32 bodyLen | u32 crc32c(body) | body
//	body   = u32 rows | payload[col0] .. payload[colN-1] | payload[ts]
//	footer = "DCSEGFTR" | u32 version | u64 base | u32 rows |
//	         u32 records | u32 schemaHash | u32 crc32c(first 32 bytes)
//
// Payloads are the column codec of internal/vector/codec.go; the arrival
// timestamps are one more TIMESTAMP payload.
const (
	footerMagic   = "DCSEGFTR"
	footerVersion = 1
	footerSize    = 8 + 4 + 8 + 4 + 4 + 4 + 4 // 36 bytes
	recordHdrSize = 8
	segSuffix     = ".seg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// footer is the decoded fixed-size trailer of a sealed segment file.
type footer struct {
	base       int64
	rows       uint32
	records    uint32
	schemaHash uint32
}

func encodeFooter(f footer) []byte {
	buf := make([]byte, footerSize)
	copy(buf, footerMagic)
	binary.LittleEndian.PutUint32(buf[8:], footerVersion)
	binary.LittleEndian.PutUint64(buf[12:], uint64(f.base))
	binary.LittleEndian.PutUint32(buf[20:], f.rows)
	binary.LittleEndian.PutUint32(buf[24:], f.records)
	binary.LittleEndian.PutUint32(buf[28:], f.schemaHash)
	binary.LittleEndian.PutUint32(buf[32:], crc32.Checksum(buf[:32], castagnoli))
	return buf
}

// decodeFooter validates the trailing footerSize bytes of a segment file.
func decodeFooter(buf []byte) (footer, error) {
	if len(buf) != footerSize {
		return footer{}, fmt.Errorf("storage: footer is %d bytes, want %d", len(buf), footerSize)
	}
	if string(buf[:8]) != footerMagic {
		return footer{}, fmt.Errorf("storage: bad footer magic")
	}
	if got, want := binary.LittleEndian.Uint32(buf[32:]), crc32.Checksum(buf[:32], castagnoli); got != want {
		return footer{}, fmt.Errorf("storage: footer checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != footerVersion {
		return footer{}, fmt.Errorf("storage: footer version %d, want %d", v, footerVersion)
	}
	return footer{
		base:       int64(binary.LittleEndian.Uint64(buf[12:])),
		rows:       binary.LittleEndian.Uint32(buf[20:]),
		records:    binary.LittleEndian.Uint32(buf[24:]),
		schemaHash: binary.LittleEndian.Uint32(buf[28:]),
	}, nil
}

// SchemaHash fingerprints a schema so a segment file can detect being
// read back under a different stream definition.
func SchemaHash(schema catalog.Schema) uint32 {
	var sb strings.Builder
	for _, c := range schema.Cols {
		sb.WriteString(c.Name)
		sb.WriteByte(':')
		sb.WriteString(c.Type.String())
		sb.WriteByte('|')
	}
	return crc32.Checksum([]byte(sb.String()), castagnoli)
}

// encodeRecord serializes one append chunk. Cols hold exactly the chunk's
// rows (the basket slices the batch at seal boundaries before calling).
// The buffer is sized exactly up front: one allocation per record.
func encodeRecord(cols []*vector.Vector, ts []int64) []byte {
	tv := vector.FromTimestamp(ts)
	size := 4 + vector.PayloadLen(tv)
	for _, c := range cols {
		size += vector.PayloadLen(c)
	}
	buf := make([]byte, recordHdrSize, recordHdrSize+size)
	binary.LittleEndian.PutUint32(buf, uint32(size)) // crc patched into buf[4:] below
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	for _, c := range cols {
		buf = vector.AppendVectorPayload(buf, c)
	}
	buf = vector.AppendVectorPayload(buf, tv)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[recordHdrSize:], castagnoli))
	return buf
}

// decodeRecordBody appends one record's rows onto cols/ts. The body has
// already passed its checksum; errors here mean the record was encoded
// under a different schema.
func decodeRecordBody(body []byte, schema catalog.Schema, cols []*vector.Vector, ts []int64) ([]int64, error) {
	if len(body) < 4 {
		return ts, fmt.Errorf("storage: record body too short")
	}
	rows := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	for i, col := range schema.Cols {
		n, err := vector.DecodePayload(cols[i], body, rows)
		if err != nil {
			return ts, fmt.Errorf("storage: column %s: %w", col.Name, err)
		}
		body = body[n:]
	}
	if len(body) != 8*rows {
		return ts, fmt.Errorf("storage: record has %d trailing bytes, want %d ts bytes", len(body), 8*rows)
	}
	tv := vector.FromTimestamp(ts)
	_, err := vector.DecodePayload(tv, body, rows)
	return tv.Int64s(), err
}

// StreamLog is the disk store for one stream: a directory of segment
// files, at most one of which (the highest base) is an unsealed mutable
// tail held open for appending. It implements Store.
//
// sealed indexes the sealed files on disk and their row counts,
// ascending by base, so Drop never lists the directory: Recover fills it
// from the files it keeps, Seal appends to it, and Drop trims the prefix
// it removes.
type StreamLog struct {
	dir        string
	schema     catalog.Schema
	hash       uint32
	syncChunks bool

	mu       sync.Mutex
	tailF    *os.File // open unsealed tail, nil when the newest segment is sealed
	tailBase int64
	tailRecs uint32
	tailRows int
	sealed   []sealedFile
}

// sealedFile is one entry of the sealed index: a file's base and the row
// count it was sealed with.
type sealedFile struct {
	base int64
	rows int
}

func (f sealedFile) end() int64 { return f.base + int64(f.rows) }

// newStreamLog creates or reuses dir for the stream's segment files.
func newStreamLog(dir string, schema catalog.Schema, syncChunks bool) (*StreamLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &StreamLog{dir: dir, schema: schema, hash: SchemaHash(schema), syncChunks: syncChunks, tailBase: -1}, nil
}

func segFileName(base int64) string {
	return fmt.Sprintf("seg-%016x%s", uint64(base), segSuffix)
}

func parseSegFileName(name string) (int64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	u, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return int64(u), true
}

// AppendChunk writes one append batch as a checksummed record into the
// tail segment file at base, creating the file on the segment's first
// chunk.
func (l *StreamLog) AppendChunk(base int64, cols []*vector.Vector, ts []int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tailF == nil {
		f, err := os.OpenFile(filepath.Join(l.dir, segFileName(base)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		l.tailF, l.tailBase, l.tailRecs, l.tailRows = f, base, 0, 0
	} else if l.tailBase != base {
		return fmt.Errorf("storage: append to segment %d while tail is %d", base, l.tailBase)
	}
	if _, err := l.tailF.Write(encodeRecord(cols, ts)); err != nil {
		return err
	}
	l.tailRecs++
	l.tailRows += len(ts)
	if l.syncChunks {
		return l.tailF.Sync()
	}
	return nil
}

// Seal freezes the tail segment at base: footer, fsync, close. The fsync
// happens before any successor segment's first record can be written, so
// the existence of a later segment file implies this one is durable.
func (l *StreamLog) Seal(base int64, rows int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tailF == nil || l.tailBase != base {
		return fmt.Errorf("storage: seal of segment %d but tail is %d", base, l.tailBase)
	}
	if rows != l.tailRows {
		return fmt.Errorf("storage: seal of segment %d with %d rows, wrote %d", base, rows, l.tailRows)
	}
	ftr := encodeFooter(footer{base: base, rows: uint32(rows), records: l.tailRecs, schemaHash: l.hash})
	if _, err := l.tailF.Write(ftr); err != nil {
		return err
	}
	if err := l.tailF.Sync(); err != nil {
		return err
	}
	// Footer and fsync done: the file is complete and durable, so it is
	// indexed for Drop even if the close below fails.
	l.sealed = append(l.sealed, sealedFile{base, rows})
	err := closeFile(l.tailF)
	l.tailF, l.tailBase = nil, -1
	return err
}

// Fetch reads the sealed segment at base back into memory.
func (l *StreamLog) Fetch(base int64) (SegmentData, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	path := filepath.Join(l.dir, segFileName(base))
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return SegmentData{}, ErrNotFound
		}
		return SegmentData{}, err
	}
	seg, err := l.decodeFile(base, raw)
	if err != nil {
		return SegmentData{}, err
	}
	if !seg.Sealed {
		return SegmentData{}, fmt.Errorf("storage: segment %d is not sealed", base)
	}
	return seg, nil
}

// decodeFile parses a whole segment file. A valid footer makes the
// segment sealed; in that case every record must also validate, the total
// row count must match the footer, and the footer's base and schema hash
// must match. Without a (valid) footer the file decodes as an unsealed
// prefix: records are consumed until the first invalid one, and
// seg.Rows/len(seg.TS) reflect only the valid prefix. The caller decides
// whether a partial prefix is salvage (Recover) or corruption (Fetch).
func (l *StreamLog) decodeFile(base int64, raw []byte) (SegmentData, error) {
	var ftr footer
	sealed := false
	body := raw
	if len(raw) >= footerSize {
		if f, err := decodeFooter(raw[len(raw)-footerSize:]); err == nil {
			if f.base != base {
				return SegmentData{}, fmt.Errorf("storage: footer base %d in file for %d", f.base, base)
			}
			if f.schemaHash != l.hash {
				return SegmentData{}, fmt.Errorf("storage: segment %d written under a different schema", base)
			}
			ftr, sealed = f, true
			body = raw[:len(raw)-footerSize]
		}
	}
	cols := make([]*vector.Vector, len(l.schema.Cols))
	for i, c := range l.schema.Cols {
		cols[i] = vector.New(c.Type, int(ftr.rows))
	}
	var ts []int64
	var recs uint32
	for len(body) > 0 {
		if len(body) < recordHdrSize {
			if sealed {
				return SegmentData{}, fmt.Errorf("storage: segment %d: torn record header", base)
			}
			break
		}
		bodyLen := int(binary.LittleEndian.Uint32(body))
		crc := binary.LittleEndian.Uint32(body[4:])
		if bodyLen < 4 || bodyLen > len(body)-recordHdrSize {
			if sealed {
				return SegmentData{}, fmt.Errorf("storage: segment %d: record overruns file", base)
			}
			break
		}
		rec := body[recordHdrSize : recordHdrSize+bodyLen]
		if crc32.Checksum(rec, castagnoli) != crc {
			if sealed {
				return SegmentData{}, fmt.Errorf("storage: segment %d: record checksum mismatch", base)
			}
			break
		}
		var err error
		ts, err = decodeRecordBody(rec, l.schema, cols, ts)
		if err != nil {
			// Checksum passed but the shape is wrong: schema drift, not a
			// torn write. Corrupt even for an unsealed tail.
			return SegmentData{}, fmt.Errorf("storage: segment %d: %w", base, err)
		}
		recs++
		body = body[recordHdrSize+bodyLen:]
	}
	if sealed {
		if uint32(len(ts)) != ftr.rows || recs != ftr.records {
			return SegmentData{}, fmt.Errorf("storage: segment %d: footer says %d rows/%d records, file has %d/%d",
				base, ftr.rows, ftr.records, len(ts), recs)
		}
	}
	return SegmentData{Base: base, Rows: len(ts), Cols: cols, TS: ts, Sealed: sealed}, nil
}

// Recover scans the stream directory after a crash. Segment files are
// validated in base order; the first invalid or unsealed file is
// truncated to its last whole record and becomes the reopened mutable
// tail, and every later file is deleted (they can only exist if the log
// was torn mid-history, which the seal-before-successor fsync rule makes
// equivalent to lost data past the tear). Returns the surviving segments
// in order; the last one may be unsealed (Rows may be 0 for none at all).
// Subsequent AppendChunk calls with the unsealed segment's base extend
// the same file.
func (l *StreamLog) Recover() ([]SegmentData, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tailF != nil {
		return nil, fmt.Errorf("storage: recover with open tail")
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, e := range entries {
		if b, ok := parseSegFileName(e.Name()); ok {
			bases = append(bases, b)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	var segs []SegmentData
	l.sealed = l.sealed[:0]
	valid := 0 // bases[:valid] survived
	for i, base := range bases {
		if i > 0 && base != segs[len(segs)-1].Base+int64(segs[len(segs)-1].Rows) {
			break // gap: everything from here on is unreachable history
		}
		path := filepath.Join(l.dir, segFileName(base))
		raw, readErr := os.ReadFile(path)
		if readErr != nil {
			return nil, readErr
		}
		seg, decErr := l.decodeFile(base, raw)
		if decErr != nil || !seg.Sealed {
			// Torn or unsealed: salvage the valid record prefix and stop.
			// decErr (schema drift / corrupt sealed file) salvages nothing.
			if decErr != nil {
				seg = SegmentData{Base: base}
			}
			validBytes := validPrefixLen(raw, l.schema)
			if seg.Rows == 0 {
				if err := os.Remove(path); err != nil {
					return nil, err
				}
			} else {
				if err := truncateTo(path, validBytes); err != nil {
					return nil, err
				}
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				l.tailF, l.tailBase = f, base
				l.tailRecs = countRecords(raw[:validBytes])
				l.tailRows = seg.Rows
				segs = append(segs, seg)
			}
			valid = i + 1
			break
		}
		segs = append(segs, seg)
		l.sealed = append(l.sealed, sealedFile{base, seg.Rows})
		valid = i + 1
	}
	for _, base := range bases[valid:] {
		if err := os.Remove(filepath.Join(l.dir, segFileName(base))); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// validPrefixLen returns the byte length of the longest prefix of raw
// made of whole, checksum-valid records that also decode under schema.
func validPrefixLen(raw []byte, schema catalog.Schema) int {
	cols := make([]*vector.Vector, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = vector.New(c.Type, 0)
	}
	var ts []int64
	off := 0
	for {
		rest := raw[off:]
		if len(rest) < recordHdrSize {
			return off
		}
		bodyLen := int(binary.LittleEndian.Uint32(rest))
		if bodyLen < 4 || bodyLen > len(rest)-recordHdrSize {
			return off
		}
		rec := rest[recordHdrSize : recordHdrSize+bodyLen]
		if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return off
		}
		var err error
		ts, err = decodeRecordBody(rec, schema, cols, ts)
		if err != nil {
			return off
		}
		off += recordHdrSize + bodyLen
	}
}

// countRecords counts whole records in a prefix already known valid.
func countRecords(raw []byte) uint32 {
	var n uint32
	for off := 0; off+recordHdrSize <= len(raw); {
		bodyLen := int(binary.LittleEndian.Uint32(raw[off:]))
		off += recordHdrSize + bodyLen
		n++
	}
	return n
}

func truncateTo(path string, n int) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(int64(n)); err != nil {
		return err
	}
	return f.Sync()
}

// Durable reports true: sealed segments survive eviction and restart.
func (l *StreamLog) Durable() bool { return true }

// Drop removes every sealed segment file whose rows all precede below.
// It walks the sealed index only while an entry's rows all precede
// below; the index is ascending and non-overlapping, so no later entry
// can qualify. Its cost is O(files removed or retried), not O(files on
// disk), and a floor inside a file costs no I/O. Each file is deleted
// only if its footer confirms base and base+rows <= below; a file that
// fails the check or whose removal errors stays on disk and in the index
// for the next Drop to retry. The first removal error is returned. The
// open tail is never in the index and so is never dropped.
func (l *StreamLog) Drop(below int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	kept, i := 0, 0 // l.sealed[:kept] collects the entries that stay
	for ; i < len(l.sealed) && l.sealed[i].end() <= below; i++ {
		gone, err := l.dropFile(l.sealed[i].base, below)
		if gone {
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		l.sealed[kept] = l.sealed[i]
		kept++
	}
	// Slide the kept entries up against the untouched suffix.
	copy(l.sealed[i-kept:i], l.sealed[:kept])
	l.sealed = l.sealed[i-kept:]
	return firstErr
}

// dropFile removes the sealed file at base if its footer confirms base
// and rows that all precede below. It reports whether the file is gone
// from disk (removed now, or already missing) and any removal error.
func (l *StreamLog) dropFile(base, below int64) (bool, error) {
	path := filepath.Join(l.dir, segFileName(base))
	f, err := os.Open(path)
	if err != nil {
		return os.IsNotExist(err), nil
	}
	buf := make([]byte, footerSize)
	st, err := f.Stat()
	ok := err == nil && st.Size() >= footerSize
	if ok {
		_, err = f.ReadAt(buf, st.Size()-footerSize)
		ok = err == nil
	}
	f.Close()
	if !ok {
		return false, nil
	}
	if ftr, err := decodeFooter(buf); err != nil || ftr.base != base || base+int64(ftr.rows) > below {
		return false, nil
	}
	if err := removeFile(path); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	return true, nil
}

// removeFile is os.Remove; tests swap it to inject removal failures,
// which directory permissions cannot produce for a root process.
var removeFile = os.Remove

// closeFile is (*os.File).Close; tests swap it to make a Seal's final
// close fail after the footer and fsync succeeded.
var closeFile = (*os.File).Close

// Files reports the segment files this log holds on disk: the sealed
// ones in the index plus the open tail.
func (l *StreamLog) Files() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sealed)
	if l.tailF != nil {
		n++
	}
	return n
}

// Close closes the open tail file, if any, without sealing it. Unsynced
// tail records may be lost on a crash after Close; Recover salvages
// whatever reached the disk.
func (l *StreamLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tailF == nil {
		return nil
	}
	err := l.tailF.Sync()
	if cerr := l.tailF.Close(); err == nil {
		err = cerr
	}
	l.tailF, l.tailBase = nil, -1
	return err
}
