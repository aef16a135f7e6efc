package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"datacell/internal/basket"
	"datacell/internal/catalog"
	"datacell/internal/exec"
	"datacell/internal/plan"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// Mode selects how a continuous query is executed.
type Mode uint8

const (
	// Incremental uses the plan-level incremental rewrite (DataCell).
	Incremental Mode = iota
	// Reevaluation recomputes the full window every slide (DataCellR).
	Reevaluation
	// Auto picks per query: re-evaluation for small windows (where the
	// incremental machinery is pure overhead) and incremental processing
	// for large ones — the hybrid the paper proposes in Section 4.2
	// ("interchange between different paradigms depending on the
	// environment"). The threshold is Options.AutoThreshold.
	Auto
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Incremental:
		return "incremental"
	case Reevaluation:
		return "reevaluation"
	case Auto:
		return "auto"
	}
	return "?"
}

// Engine hosts streams, tables and continuous queries.
type Engine struct {
	mu      sync.Mutex
	cat     *catalog.Catalog
	streams map[string]*streamInfo
	tables  map[string]*tableStore
	queries map[string]*ContinuousQuery
	nextID  int
	// defaultPar is the intra-query parallelism applied to queries
	// registered without an explicit Options.Parallelism (<= 1 means
	// sequential; see SetDefaultParallelism).
	defaultPar int

	// loadNS accumulates wall time spent appending stream data (the
	// "loading" component of the paper's cost breakdown figure).
	loadNS int64

	// store is the persistent data directory (nil = memory-only engine).
	// When set, stream logs write sealed segments through it, the catalog
	// and standing queries are journaled to its manifest, and Recover can
	// rebuild the whole engine after a crash. ramBudget caps each stream
	// log's resident sealed payload bytes (0 = never evict). recovering
	// suppresses manifest writes while Recover replays the manifest's own
	// entries (guarded by mu).
	store      *storage.Dir
	ramBudget  int64
	recovering bool
	// sealRows overrides basket.DefaultSealRows for streams registered
	// after SetSealRows (0 = default; guarded by mu).
	sealRows int

	// Concurrent scheduler state (see scheduler.go). schedMu is always
	// acquired before mu when both are needed.
	schedMu sync.Mutex
	running bool
	workers map[string]*workerHandle
	// deregErr preserves the first worker error of a query that was
	// deregistered while failed, so Err() keeps reporting it until the
	// next Start.
	deregErr error
}

type streamInfo struct {
	schema catalog.Schema
	// log is the stream's shared segment store: receptors append each
	// tuple exactly once; every subscribed query reads it through its own
	// basket.Cursor, so expiration policies never interfere across
	// queries and ingest cost is independent of the subscriber count.
	log *basket.Basket
	// subscribers is an immutable copy-on-write snapshot: (un)register
	// replaces the whole slice under e.mu, so receptors may fan wake-ups
	// out over it without cloning per append.
	subscribers []*queryInput
	watermark   int64
	appended    int64
	// shares is the stream's shared-plan catalog: canonical per-bw fragment
	// (and merge head) -> the queries subscribed to it, so each is computed
	// once per slide no matter how many queries stand on the stream.
	shares *shareRegistry
}

// Lock-ordering note: e.mu (engine metadata) may be held while acquiring a
// stream log's lock (Register/Deregister wire cursors under both), but
// never the reverse — receptor and factory paths always release e.mu
// before touching a log, and never call back into the engine while holding
// one.

type tableStore struct {
	mu     sync.Mutex
	schema catalog.Schema
	cols   []*vector.Vector
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{
		cat:     catalog.New(),
		streams: map[string]*streamInfo{},
		tables:  map[string]*tableStore{},
		queries: map[string]*ContinuousQuery{},
		workers: map[string]*workerHandle{},
	}
}

// NewWithStore creates an engine backed by a persistent data directory:
// stream logs write sealed segments through the store, DDL and standing
// queries are journaled to the manifest, and sealed segments may be
// evicted under ramBudget bytes per stream (0 = never evict). Call
// Recover before registering anything to replay a previous run.
func NewWithStore(dir *storage.Dir, ramBudget int64) *Engine {
	e := New()
	e.store = dir
	e.ramBudget = ramBudget
	return e
}

// SetSealRows overrides the per-stream seal threshold for streams
// registered (or recovered) afterwards. Values < 1 keep the default.
// The threshold only shapes future segments; recovery accepts logs
// sealed at any size.
func (e *Engine) SetSealRows(n int) {
	e.mu.Lock()
	e.sealRows = n
	e.mu.Unlock()
}

// sealRowsLocked returns the effective seal threshold. Caller holds e.mu.
func (e *Engine) sealRowsLocked() int {
	if e.sealRows > 0 {
		return e.sealRows
	}
	return basket.DefaultSealRows
}

// Catalog exposes the engine's catalog (read-mostly).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// SetDefaultParallelism sets the intra-query parallelism inherited by
// queries registered afterwards with Options.Parallelism == 0. Values
// <= 1 mean sequential evaluation. Already-registered queries keep the
// parallelism they were built with.
func (e *Engine) SetDefaultParallelism(n int) {
	e.mu.Lock()
	e.defaultPar = n
	e.mu.Unlock()
}

// RegisterStream declares a stream source. With a store attached the
// stream's segment log persists sealed segments and the definition is
// journaled to the manifest.
func (e *Engine) RegisterStream(name string, schema catalog.Schema) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.Register(&catalog.Source{Name: name, Kind: catalog.Stream, Schema: schema}); err != nil {
		return err
	}
	log, err := e.newStreamLogLocked(name, schema)
	if err != nil {
		_ = e.cat.Drop(name)
		return err
	}
	e.streams[name] = &streamInfo{schema: schema, log: log, shares: newShareRegistry()}
	if err := e.persistSourceLocked(name, schema, true); err != nil {
		return fmt.Errorf("engine: stream %s registered but not journaled: %w", name, err)
	}
	return nil
}

// newStreamLogLocked builds a stream's segment log: store-backed when the
// engine has a data directory, memory-only otherwise.
func (e *Engine) newStreamLogLocked(name string, schema catalog.Schema) (*basket.Basket, error) {
	if e.store == nil {
		return basket.New(name, schema), nil
	}
	sl, err := e.store.Stream(name, schema)
	if err != nil {
		return nil, err
	}
	return basket.NewStored(name, schema, e.sealRowsLocked(), sl, e.ramBudget), nil
}

// RegisterTable declares a persistent table. Table DDL is journaled to
// the manifest; table rows are not (see docs/ARCHITECTURE.md — reload
// tables after recovery).
func (e *Engine) RegisterTable(name string, schema catalog.Schema) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.Register(&catalog.Source{Name: name, Kind: catalog.Table, Schema: schema}); err != nil {
		return err
	}
	cols := make([]*vector.Vector, schema.Arity())
	for i, c := range schema.Cols {
		cols[i] = vector.New(c.Type, 0)
	}
	e.tables[name] = &tableStore{schema: schema, cols: cols}
	if err := e.persistSourceLocked(name, schema, false); err != nil {
		return fmt.Errorf("engine: table %s registered but not journaled: %w", name, err)
	}
	return nil
}

// InsertTable appends rows (columnar) into a persistent table.
func (e *Engine) InsertTable(name string, cols []*vector.Vector) error {
	e.mu.Lock()
	ts, ok := e.tables[name]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(cols) != len(ts.cols) {
		return fmt.Errorf("engine: table %s expects %d columns, got %d", name, len(ts.cols), len(cols))
	}
	for i, c := range cols {
		if c.Type() != ts.schema.Cols[i].Type {
			return fmt.Errorf("engine: table %s column %s expects %s", name, ts.schema.Cols[i].Name, ts.schema.Cols[i].Type)
		}
		ts.cols[i].AppendVector(c)
	}
	return nil
}

// AppendColumns delivers a batch of stream tuples (columnar form) to the
// stream's shared segment log; ts carries per-tuple arrival timestamps in
// microseconds (nil means all zero — fine for count-based windows). It
// acts as the receptor: data lands once in the log, queries read it
// through their cursors and fire later via Pump or Run. This is the
// engine's ingest fast path: the batch is validated once against the
// stream schema up front, appended once as typed bulk column appends with
// no per-value boxing, and the per-subscriber work is a watermark bump
// plus a non-blocking wake-up — per-tuple ingest cost is independent of
// how many queries subscribe.
func (e *Engine) AppendColumns(stream string, cols []*vector.Vector, ts []int64) error {
	t0 := time.Now()
	e.mu.Lock()
	si, ok := e.streams[stream]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("engine: unknown stream %q", stream)
	}
	schema := si.schema
	e.mu.Unlock()

	// Validate the whole batch before touching any basket.
	if len(cols) != schema.Arity() {
		return fmt.Errorf("engine: stream %s expects %d columns, got %d", stream, schema.Arity(), len(cols))
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	for i, c := range cols {
		if c.Len() != n {
			return fmt.Errorf("engine: stream %s: ragged batch (column %s has %d values, want %d)",
				stream, schema.Cols[i].Name, c.Len(), n)
		}
		want := schema.Cols[i].Type
		if got := c.Type(); got != want && !(vector.IntKind(got) && vector.IntKind(want)) {
			return fmt.Errorf("engine: stream %s: column %s expects %s, got %s",
				stream, schema.Cols[i].Name, want, got)
		}
	}
	if ts != nil && len(ts) != n {
		return fmt.Errorf("engine: stream %s: %d timestamps for %d tuples", stream, len(ts), n)
	}
	if n == 0 {
		return nil
	}

	e.mu.Lock()
	subs := si.subscribers // immutable snapshot, no clone
	si.appended += int64(n)
	if len(ts) > 0 {
		last := ts[len(ts)-1]
		if last > si.watermark {
			si.watermark = last
		}
	}
	log := si.log
	e.mu.Unlock()

	// One copy into the shared segment log, no matter how many queries
	// subscribe; the per-tuple watermarks of all cursors advance under the
	// same (single) lock acquisition.
	log.Lock()
	err := log.AppendColumnsLocked(cols, ts)
	if err == nil && len(ts) > 0 {
		last := ts[len(ts)-1]
		for _, qi := range subs {
			qi.advanceWatermarkLocked(last)
		}
	}
	log.Unlock()
	if err != nil {
		return err
	}
	// Wake only the factories subscribed to this stream; independent
	// queries never share a wake-up (the Petri-net edge of the paper).
	for _, qi := range subs {
		qi.q.notifyData()
	}
	e.mu.Lock()
	e.loadNS += time.Since(t0).Nanoseconds()
	e.mu.Unlock()
	return nil
}

// Append is a compatibility alias for AppendColumns.
func (e *Engine) Append(stream string, cols []*vector.Vector, ts []int64) error {
	return e.AppendColumns(stream, cols, ts)
}

// StreamSchema returns the schema of a registered stream.
func (e *Engine) StreamSchema(name string) (catalog.Schema, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	si, ok := e.streams[name]
	if !ok {
		return catalog.Schema{}, false
	}
	return si.schema, true
}

// AppendRows is a row-oriented convenience around Append.
func (e *Engine) AppendRows(stream string, rows [][]vector.Value, ts []int64) error {
	e.mu.Lock()
	si, ok := e.streams[stream]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("engine: unknown stream %q", stream)
	}
	cols := make([]*vector.Vector, si.schema.Arity())
	for i, c := range si.schema.Cols {
		cols[i] = vector.New(c.Type, len(rows))
	}
	for _, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("engine: row arity %d, want %d", len(row), len(cols))
		}
		for i, v := range row {
			want := si.schema.Cols[i].Type
			if v.Typ != want && !(vector.IntKind(v.Typ) && vector.IntKind(want)) {
				return fmt.Errorf("engine: stream %s: column %s expects %s, got %s",
					stream, si.schema.Cols[i].Name, want, v.Typ)
			}
			cols[i].AppendValue(v)
		}
	}
	return e.AppendColumns(stream, cols, ts)
}

// SetWatermark advances a stream's event-time watermark, allowing
// time-based windows to close without further tuples.
func (e *Engine) SetWatermark(stream string, ts int64) error {
	e.mu.Lock()
	si, ok := e.streams[stream]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("engine: unknown stream %q", stream)
	}
	if ts > si.watermark {
		si.watermark = ts
	}
	subs := si.subscribers // immutable snapshot, no clone
	log := si.log
	e.mu.Unlock()
	log.Lock()
	for _, qi := range subs {
		qi.advanceWatermarkLocked(ts)
	}
	log.Unlock()
	for _, qi := range subs {
		qi.q.notifyData()
	}
	return nil
}

// LoadNS reports cumulative time spent in Append (receptor-side loading).
func (e *Engine) LoadNS() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.loadNS
}

// tableInputs builds the exec inputs for a program's table sources; stream
// entries are placeholders replaced per step.
func (e *Engine) tableInputs(prog *plan.Program) ([]exec.Input, error) {
	inputs := make([]exec.Input, len(prog.Sources))
	for i, src := range prog.Sources {
		if src.IsStream {
			continue
		}
		e.mu.Lock()
		ts, ok := e.tables[src.Name]
		e.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", src.Name)
		}
		ts.mu.Lock()
		cols := make([]*vector.Vector, len(ts.cols))
		copy(cols, ts.cols)
		ts.mu.Unlock()
		inputs[i] = exec.Input{Cols: cols}
	}
	return inputs, nil
}

// QueryOnce runs a one-time (non-continuous) query over persistent tables.
func (e *Engine) QueryOnce(query string) (*exec.Table, error) {
	prog, err := plan.Compile(query, e.cat)
	if err != nil {
		return nil, err
	}
	for _, src := range prog.Sources {
		if src.IsStream {
			return nil, fmt.Errorf("engine: one-time queries may only read tables; register %q as a continuous query instead", src.Name)
		}
	}
	inputs, err := e.tableInputs(prog)
	if err != nil {
		return nil, err
	}
	return exec.Run(prog, inputs)
}

// sortedQueriesLocked snapshots the registered queries in registration
// order. Caller must hold e.mu.
func (e *Engine) sortedQueriesLocked() []*ContinuousQuery {
	qs := make([]*ContinuousQuery, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].seq < qs[j].seq })
	return qs
}

// Pump fires every continuous query as long as it has enough buffered data
// for another step, and returns the number of steps executed. It is the
// synchronous form of the scheduler: deterministic (queries fire in
// registration order on the calling goroutine), ideal for tests and
// benchmarks. See Start/PumpParallel for the concurrent forms.
func (e *Engine) Pump() (int, error) {
	e.mu.Lock()
	qs := e.sortedQueriesLocked()
	e.mu.Unlock()
	steps := 0
	for {
		fired := false
		for _, q := range qs {
			n, err := q.pump()
			if err != nil {
				return steps, err
			}
			steps += n
			if n > 0 {
				fired = true
			}
		}
		if !fired {
			return steps, nil
		}
	}
}

// cursorOf returns the segment-log cursor of query q for source srcIdx
// (testing hook).
func (e *Engine) cursorOf(q *ContinuousQuery, srcIdx int) *basket.Cursor {
	return q.inputs[srcIdx].cur
}

// streamLog returns the shared segment log of a stream (testing hook).
func (e *Engine) streamLog(name string) *basket.Basket {
	e.mu.Lock()
	defer e.mu.Unlock()
	if si, ok := e.streams[name]; ok {
		return si.log
	}
	return nil
}
