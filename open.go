package datacell

import (
	"fmt"
	"strings"

	"datacell/internal/basket"
	"datacell/internal/engine"
	"datacell/internal/storage"
)

// StoreConfig tunes a persistent instance opened with OpenConfig.
type StoreConfig struct {
	// RAMBudget caps each stream's resident sealed-segment payload bytes;
	// colder segments are evicted to disk and fetched back on demand.
	// 0 means never evict.
	RAMBudget int64
	// SealRows is the tail-segment size (tuples) at which a stream's log
	// seals a segment to disk. 0 keeps the default (8192).
	SealRows int
	// SyncChunks fsyncs every appended chunk instead of only at seal time.
	// Durability of the unsealed tail against OS crashes, at a heavy
	// ingest cost; without it a torn tail still recovers to the last
	// fully-written record.
	SyncChunks bool
}

// StorageStats snapshots one stream's segment-log residency counters.
type StorageStats = basket.StorageStats

// Open opens (creating if needed) a persistent instance rooted at dir and
// replays any previous run: stream and table definitions, stream data up
// to the last durable record, and standing queries. Recovered queries are
// listed by RecoveredQueries and re-emit every window of the crashed run
// before continuing — the replay waits in each query's in-process cursor
// for Results or the first reader (Query.Subscribe or Tap, typically after
// AdoptRecovered), which decides what to do with windows already seen.
func Open(dir string) (*DB, error) {
	return OpenConfig(dir, StoreConfig{})
}

// OpenConfig is Open with storage tuning.
func OpenConfig(dir string, cfg StoreConfig) (*DB, error) {
	d, err := storage.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	d.SetSyncChunks(cfg.SyncChunks)
	eng := engine.NewWithStore(d, cfg.RAMBudget)
	eng.SetSealRows(cfg.SealRows)
	db := &DB{eng: eng, clocks: map[string]*streamClock{}, dir: d}

	defs, err := eng.Recover()
	if err != nil {
		_ = d.Close()
		return nil, fmt.Errorf("datacell: open %s: %w", dir, err)
	}
	for _, def := range defs {
		q := newQuery(db)
		cq, err := eng.RegisterRecovered(def, q.deliver)
		if err != nil {
			_ = d.Close()
			return nil, fmt.Errorf("datacell: open %s: re-register %q: %w", dir, def.SQL, err)
		}
		q.cq = cq
		db.recovered = append(db.recovered, q)
	}
	// Seed each stream's arrival clock from the recovered watermark so
	// wall-clock stamps issued after reopen never fall below replayed
	// event times.
	for _, name := range eng.StreamNames() {
		if wm, ok := eng.StreamWatermark(name); ok {
			db.clocks[name] = &streamClock{last: wm}
		}
	}
	return db, nil
}

// Durable reports whether this instance persists stream data (opened via
// Open rather than New).
func (db *DB) Durable() bool { return db.dir != nil }

// DataDir returns the data directory path, or "" for a memory instance.
func (db *DB) DataDir() string {
	if db.dir == nil {
		return ""
	}
	return db.dir.Root()
}

// RecoveredQueries returns the standing queries replayed from the data
// directory that no caller has adopted yet. They are live — producing
// (and buffering) window results — from the moment Open returns.
func (db *DB) RecoveredQueries() []*Query {
	db.recMu.Lock()
	defer db.recMu.Unlock()
	out := make([]*Query, len(db.recovered))
	copy(out, db.recovered)
	return out
}

// normalizeSQL collapses whitespace so registration-time and
// adoption-time statements compare textually.
func normalizeSQL(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// AdoptRecovered hands over the recovered query matching the statement
// (whitespace-insensitively) and mode, removing it from RecoveredQueries,
// or returns nil when no unadopted recovered query matches. A client that
// re-issues its registrations after a server restart resumes its old query
// — buffered replay windows and all — instead of registering a duplicate.
// Note Auto mode resolves at registration, so adopt with the mode the
// original registration resolved to (see Query.Mode).
func (db *DB) AdoptRecovered(sql string, mode Mode) *Query {
	want := normalizeSQL(sql)
	db.recMu.Lock()
	defer db.recMu.Unlock()
	for i, q := range db.recovered {
		if q.cq.Mode == mode && normalizeSQL(q.cq.SQL) == want {
			db.recovered = append(db.recovered[:i], db.recovered[i+1:]...)
			return q
		}
	}
	return nil
}

// StreamStorage returns the segment-log residency stats of one stream.
func (db *DB) StreamStorage(stream string) (StorageStats, bool) {
	return db.eng.StreamStorageStats(stream)
}

// StorageByStream snapshots every stream's segment-log residency stats,
// keyed by stream name — the /metrics export surface for the storage tier.
func (db *DB) StorageByStream() map[string]StorageStats {
	out := map[string]StorageStats{}
	for _, name := range db.eng.StreamNames() {
		if st, ok := db.eng.StreamStorageStats(name); ok {
			out[name] = st
		}
	}
	return out
}

// Close stops the scheduler and releases the data directory (syncing the
// unsealed tails). A memory instance just stops the scheduler. The DB must
// not be used afterwards.
func (db *DB) Close() error {
	db.Stop()
	if db.dir == nil {
		return nil
	}
	return db.dir.Close()
}
