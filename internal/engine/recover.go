package engine

import (
	"fmt"
	"sort"

	"datacell/internal/basket"
	"datacell/internal/catalog"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// This file is the engine half of crash recovery. The storage manifest
// journals DDL and standing-query registrations as they happen; Recover
// replays it — rebuilding each stream's segment log from its on-disk
// segments, re-deriving watermarks and arrival counters from the data
// itself, and handing the persisted query definitions back to the caller
// to re-register (RegisterRecovered). Replay is deliberately from each
// query's original start offset over the whole retained log, so a
// recovered engine re-emits every window the crashed run emitted (and the
// ones it was still owed) bit-identically; the subscriber decides what to
// do with windows it has already seen.

// sourceDef converts a schema to its manifest form.
func sourceDef(name string, schema catalog.Schema) storage.SourceDef {
	d := storage.SourceDef{Name: name, Cols: make([]storage.ColumnDef, schema.Arity())}
	for i, c := range schema.Cols {
		d.Cols[i] = storage.ColumnDef{Name: c.Name, Type: uint8(c.Type)}
	}
	return d
}

// defSchema converts a manifest source back to a schema.
func defSchema(d storage.SourceDef) catalog.Schema {
	cols := make([]catalog.Column, len(d.Cols))
	for i, c := range d.Cols {
		cols[i] = catalog.Column{Name: c.Name, Type: vector.Type(c.Type)}
	}
	return catalog.Schema{Cols: cols}
}

// persistSourceLocked journals a stream/table definition. Caller holds
// e.mu. No-op without a store or during recovery replay (the entry is
// already in the manifest).
func (e *Engine) persistSourceLocked(name string, schema catalog.Schema, stream bool) error {
	if e.store == nil || e.recovering {
		return nil
	}
	return e.store.UpdateManifest(func(m *storage.Manifest) {
		if stream {
			m.Streams = append(m.Streams, sourceDef(name, schema))
		} else {
			m.Tables = append(m.Tables, sourceDef(name, schema))
		}
	})
}

// persistQuery journals a standing-query registration (or removes one,
// when def is nil) and advances the manifest's sequence high-water mark.
func (e *Engine) persistQuery(seq int, def *storage.QueryDef) error {
	e.mu.Lock()
	store, recovering := e.store, e.recovering
	e.mu.Unlock()
	if store == nil || recovering {
		return nil
	}
	return store.UpdateManifest(func(m *storage.Manifest) {
		if seq > m.NextSeq {
			m.NextSeq = seq
		}
		out := m.Queries[:0]
		for _, q := range m.Queries {
			if q.Seq != seq {
				out = append(out, q)
			}
		}
		m.Queries = out
		if def != nil {
			m.Queries = append(m.Queries, *def)
		}
	})
}

// Recover replays the store's manifest into an empty engine: streams are
// rebuilt from their on-disk segment logs (torn tails truncated at the
// last valid record), tables are re-declared (schema only — rows are not
// persisted), and per-stream watermarks and arrival counters are
// re-derived from the recovered data. It returns the persisted standing
// queries for the caller to re-register via RegisterRecovered, in
// registration (Seq) order. Recover must run before any other
// registration on this engine.
func (e *Engine) Recover() ([]storage.QueryDef, error) {
	e.mu.Lock()
	if e.store == nil {
		e.mu.Unlock()
		return nil, nil
	}
	if len(e.streams) > 0 || len(e.tables) > 0 || len(e.queries) > 0 {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: Recover on a non-empty engine")
	}
	e.recovering = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.recovering = false
		e.mu.Unlock()
	}()

	man := e.store.Manifest()
	for _, sd := range man.Streams {
		if err := e.recoverStream(sd.Name, defSchema(sd)); err != nil {
			return nil, fmt.Errorf("engine: recover stream %s: %w", sd.Name, err)
		}
	}
	for _, td := range man.Tables {
		if err := e.RegisterTable(td.Name, defSchema(td)); err != nil {
			return nil, fmt.Errorf("engine: recover table %s: %w", td.Name, err)
		}
	}
	e.mu.Lock()
	if man.NextSeq > e.nextID {
		e.nextID = man.NextSeq
	}
	e.mu.Unlock()
	return man.Queries, nil
}

// recoverStream rebuilds one stream from its segment files: scan +
// validate + truncate the torn suffix, restore the basket chain, and
// re-derive the watermark (max arrival timestamp of the retained data)
// and the appended counter (absolute end of the recovered log).
func (e *Engine) recoverStream(name string, schema catalog.Schema) error {
	sl, err := e.store.Stream(name, schema)
	if err != nil {
		return err
	}
	segs, err := sl.Recover()
	if err != nil {
		return err
	}
	e.mu.Lock()
	sealRows := e.sealRowsLocked()
	e.mu.Unlock()
	log := basket.Restore(name, schema, sealRows, sl, e.ramBudget, segs)
	var wm int64
	for _, sd := range segs {
		if n := len(sd.TS); n > 0 && sd.TS[n-1] > wm {
			wm = sd.TS[n-1]
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.Register(&catalog.Source{Name: name, Kind: catalog.Stream, Schema: schema}); err != nil {
		return err
	}
	e.streams[name] = &streamInfo{
		schema:    schema,
		log:       log,
		watermark: wm,
		appended:  log.Appended(),
	}
	return nil
}

// RegisterRecovered re-installs a persisted standing query under its
// original id (q<Seq>), with its cursors at the persisted start offsets
// (clamped to the retained log) so replay re-reads the whole retained
// history. onResult receives the replayed and all future window results.
func (e *Engine) RegisterRecovered(def storage.QueryDef, onResult func(*Result)) (*ContinuousQuery, error) {
	opts := Options{
		Mode:           Mode(def.Mode),
		AutoThreshold:  def.AutoThreshold,
		Chunks:         def.Chunks,
		AdaptiveChunks: def.AdaptiveChunks,
		Parallelism:    def.Parallelism,
		OnResult:       onResult,
	}
	return e.register(def.SQL, opts, def.Start, def.Seq)
}

// StreamAppended returns the absolute number of rows ever appended to a
// stream's log (including rows already reclaimed).
func (e *Engine) StreamAppended(name string) (int64, bool) {
	e.mu.Lock()
	si, ok := e.streams[name]
	e.mu.Unlock()
	if !ok {
		return 0, false
	}
	return si.log.Appended(), true
}

// StreamWatermark returns a stream's current event-time watermark.
func (e *Engine) StreamWatermark(name string) (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	si, ok := e.streams[name]
	if !ok {
		return 0, false
	}
	return si.watermark, true
}

// StreamStorageStats returns the residency/spill counters of one stream's
// segment log.
func (e *Engine) StreamStorageStats(name string) (basket.StorageStats, bool) {
	e.mu.Lock()
	si, ok := e.streams[name]
	e.mu.Unlock()
	if !ok {
		return basket.StorageStats{}, false
	}
	return si.log.StorageStats(), true
}

// StreamNames returns the registered stream names (sorted).
func (e *Engine) StreamNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.streams))
	for n := range e.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
