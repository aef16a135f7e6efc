package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"datacell/internal/catalog"
)

// ColumnDef is one column of a persisted stream or table definition.
type ColumnDef struct {
	Name string `json:"name"`
	Type uint8  `json:"type"` // vector.Type
}

// SourceDef is a persisted stream or table definition.
type SourceDef struct {
	Name string      `json:"name"`
	Cols []ColumnDef `json:"cols"`
}

// QueryDef is a persisted standing query: the statement text plus every
// serializable option, enough for recovery to re-register it with the
// same id (q<seq>) and execution strategy. Start records the absolute
// row offset of the query's cursor on each input stream at registration
// time; replay re-reads the retained log from there.
type QueryDef struct {
	Seq            int              `json:"seq"`
	SQL            string           `json:"sql"`
	Mode           uint8            `json:"mode"`
	AutoThreshold  int64            `json:"auto_threshold,omitempty"`
	Chunks         int              `json:"chunks,omitempty"`
	AdaptiveChunks bool             `json:"adaptive_chunks,omitempty"`
	Parallelism    int              `json:"parallelism,omitempty"`
	Start          map[string]int64 `json:"start,omitempty"`
}

// Manifest is the persisted engine catalog. It is rewritten atomically
// (temp file + rename + directory sync) on every DDL or query
// registration change, so a crash leaves either the old or the new
// catalog, never a torn one.
type Manifest struct {
	Version int         `json:"version"`
	NextSeq int         `json:"next_seq"` // high-water query sequence; never reused
	Streams []SourceDef `json:"streams,omitempty"`
	Tables  []SourceDef `json:"tables,omitempty"`
	Queries []QueryDef  `json:"queries,omitempty"`
}

const (
	manifestVersion = 1
	manifestName    = "MANIFEST.json"
)

// Clone deep-copies the manifest.
func (m Manifest) Clone() Manifest {
	out := m
	out.Streams = append([]SourceDef(nil), m.Streams...)
	out.Tables = append([]SourceDef(nil), m.Tables...)
	out.Queries = make([]QueryDef, len(m.Queries))
	for i, q := range m.Queries {
		out.Queries[i] = q
		if q.Start != nil {
			out.Queries[i].Start = make(map[string]int64, len(q.Start))
			for k, v := range q.Start {
				out.Queries[i].Start[k] = v
			}
		}
	}
	return out
}

// Dir is a datacell data directory: the manifest at the root and one
// segment-file directory per stream under streams/.
type Dir struct {
	root       string
	syncChunks bool

	mu      sync.Mutex
	man     Manifest
	streams map[string]*StreamLog
}

// OpenDir opens (creating if necessary) a data directory and loads its
// manifest. An empty or absent directory yields an empty manifest.
func OpenDir(root string) (*Dir, error) {
	if err := os.MkdirAll(filepath.Join(root, "streams"), 0o755); err != nil {
		return nil, err
	}
	d := &Dir{root: root, streams: make(map[string]*StreamLog), man: Manifest{Version: manifestVersion}}
	raw, err := os.ReadFile(filepath.Join(root, manifestName))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, err
	default:
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("storage: manifest: %w", err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("storage: manifest version %d, want %d", m.Version, manifestVersion)
		}
		d.man = m
	}
	return d, nil
}

// Root returns the data directory path.
func (d *Dir) Root() string { return d.root }

// SetSyncChunks makes subsequently opened stream logs fsync every append
// chunk instead of only on seal (slower, but bounds data loss to zero
// acknowledged batches instead of the unsynced tail suffix).
func (d *Dir) SetSyncChunks(on bool) { d.syncChunks = on }

// Manifest returns a copy of the current manifest.
func (d *Dir) Manifest() Manifest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.man.Clone()
}

// UpdateManifest applies fn to the manifest and persists it atomically.
// If the write fails the in-memory manifest keeps the update (the caller
// has already acted on it); the error reports the durability gap.
func (d *Dir) UpdateManifest(fn func(*Manifest)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn(&d.man)
	d.man.Version = manifestVersion
	raw, err := json.MarshalIndent(d.man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.root, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.root, manifestName)); err != nil {
		return err
	}
	// Sync the directory so the rename itself survives power loss.
	if dirF, err := os.Open(d.root); err == nil {
		dirF.Sync()
		dirF.Close()
	}
	return nil
}

// escapeStreamName maps a stream name to a filesystem-safe directory
// name: bytes outside [A-Za-z0-9_-] become %XX.
func escapeStreamName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-':
			out = append(out, c)
		default:
			out = append(out, fmt.Sprintf("%%%02X", c)...)
		}
	}
	return string(out)
}

// Stream returns (opening on first use) the segment log for a stream.
// The same *StreamLog is returned for repeat calls with the same name.
func (d *Dir) Stream(name string, schema catalog.Schema) (*StreamLog, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.streams[name]; ok {
		return l, nil
	}
	l, err := newStreamLog(filepath.Join(d.root, "streams", escapeStreamName(name)), schema, d.syncChunks)
	if err != nil {
		return nil, err
	}
	d.streams[name] = l
	return l, nil
}

// Close closes every open stream log.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, l := range d.streams {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
