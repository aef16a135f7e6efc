// Package datacell is a stream engine built inside a relational column-store
// kernel, reproducing "Enhanced Stream Processing in a DBMS Kernel"
// (Liarou, Idreos, Manegold, Kersten — EDBT 2013).
//
// DataCell evaluates continuous sliding-window SQL queries by rewriting
// ordinary (optimized) relational query plans into incremental plans at the
// plan level: the stream is split into basic windows, the deepest possible
// plan prefix is replicated per basic window, partial intermediates are
// merged with concatenation + compensation operators, and the intermediates
// slide along with the window. The underlying storage and execution engine
// is an unmodified bulk columnar kernel.
//
// # Quick start
//
//	dc := datacell.New()
//	dc.MustRegisterStream("sensors", datacell.Col("room", datacell.Int64),
//		datacell.Col("temp", datacell.Float64))
//
//	q, _ := dc.Register(
//		`SELECT room, avg(temp) FROM sensors [RANGE 1000 SLIDE 100] GROUP BY room`,
//		datacell.Options{})
//	results, _ := q.Subscribe(ctx, datacell.SubOptions{Buffer: 16})
//	go func() {
//		for r := range results {
//			fmt.Println(r.Table)
//		}
//	}()
//
//	// Receptor side: columnar batches, no per-value boxing.
//	b, _ := dc.NewBatch("sensors")
//	room, temp := b.Int64Col("room"), b.Float64Col("temp")
//	for _, s := range samples {
//		room.Append(s.Room)
//		temp.Append(s.Temp)
//	}
//	dc.AppendBatch("sensors", b)
//	dc.Pump() // or dc.Run() for a background scheduler
//
// The row-oriented Append remains as a compatibility wrapper over the same
// core. Every reader of results — Subscribe, Query.Tap, Results — is a
// cursor on the query's result log.
//
// Queries run in one of two modes: Incremental (the paper's contribution,
// default) or Reevaluation (the DataCellR baseline that recomputes every
// window from scratch). Both modes produce identical results; the
// difference is purely in work performed per slide.
package datacell

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/catalog"
	"datacell/internal/engine"
	"datacell/internal/exec"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// Type is a column type.
type Type = vector.Type

// Column types.
const (
	Int64     = vector.Int64
	Float64   = vector.Float64
	String    = vector.Str
	Bool      = vector.Bool
	Timestamp = vector.Timestamp
)

// Value is a boxed scalar (see Int, Float, Str and Boolean constructors).
type Value = vector.Value

// Int boxes an int64 value.
func Int(x int64) Value { return vector.IntValue(x) }

// Float boxes a float64 value.
func Float(x float64) Value { return vector.FloatValue(x) }

// Str boxes a string value.
func Str(x string) Value { return vector.StrValue(x) }

// Boolean boxes a bool value.
func Boolean(x bool) Value { return vector.BoolValue(x) }

// ColumnDef declares one attribute of a stream or table.
type ColumnDef struct {
	Name string
	Type Type
}

// Col is a convenience constructor for ColumnDef.
func Col(name string, t Type) ColumnDef { return ColumnDef{Name: name, Type: t} }

// Mode selects how a continuous query executes.
type Mode = engine.Mode

// Execution modes.
const (
	// Incremental is the paper's plan-level incremental processing.
	Incremental = engine.Incremental
	// Reevaluation recomputes the full window every slide (DataCellR).
	Reevaluation = engine.Reevaluation
	// Auto selects per query between the two, preferring re-evaluation for
	// small windows and incremental processing for large ones — the hybrid
	// system the paper suggests in Section 4.2.
	Auto = engine.Auto
)

// Options configure a continuous query.
type Options struct {
	// Mode defaults to Incremental.
	Mode Mode
	// AutoThreshold overrides the Auto-mode window-size cutoff (tuples).
	AutoThreshold int64
	// Chunks > 1 processes each basic window in that many early chunks
	// (single-stream queries only).
	Chunks int
	// AdaptiveChunks enables the self-tuning chunk controller (Fig 8).
	AdaptiveChunks bool
	// Parallelism bounds the worker goroutines this query may use for
	// intra-query parallelism (incremental mode): independent basic-window
	// fragments of buffered slides evaluate concurrently over the shared
	// segment store. 0 inherits the DB default (SetParallelism), 1 forces
	// sequential evaluation. Results are identical at any setting; see
	// docs/ARCHITECTURE.md and the README "Tuning" section.
	Parallelism int
}

// Result is one window result.
type Result struct {
	// Window is the 1-based window sequence number.
	Window int
	// Table holds the result rows.
	Table *exec.Table
	// Latency is the processing time of the step that emitted this window.
	Latency time.Duration
	// MainLatency and MergeLatency split Latency into the runtime stages:
	// fragment work (the original plan's per-basic-window / per-segment
	// evaluation) and the merge (incremental mode; re-evaluation reports
	// the scan under Main and the combine under Merge).
	MainLatency, MergeLatency time.Duration
}

// Table re-exports the result table type.
type Table = exec.Table

// DB is a DataCell instance: catalog, baskets, factories and scheduler.
type DB struct {
	eng *engine.Engine

	// dir is the persistent data directory (nil for a memory instance —
	// see Open).
	dir *storage.Dir

	// recMu guards recovered, the replayed standing queries awaiting
	// adoption (see RecoveredQueries / AdoptRecovered).
	recMu     sync.Mutex
	recovered []*Query

	// clockMu guards clocks, the per-stream arrival-clock registry (see
	// streamClock).
	clockMu sync.Mutex
	clocks  map[string]*streamClock
}

// streamClock issues one stream's arrival timestamps. Its mutex is held
// across both stamping and the engine hand-off, so concurrent producers
// cannot land in the baskets out of timestamp order, and wall-clock stamps
// are strictly increasing per stream even when consecutive calls fall in
// the same microsecond — two batches can never interleave ambiguously
// inside a time window.
type streamClock struct {
	mu   sync.Mutex
	last int64
}

// stampLocked returns the next arrival stamp; c.mu must be held.
func (c *streamClock) stampLocked() int64 {
	now := time.Now().UnixMicro()
	if now <= c.last {
		now = c.last + 1
	}
	c.last = now
	return now
}

// noteLocked records an explicit event timestamp so a later wall-clock
// stamp cannot fall below it; c.mu must be held.
func (c *streamClock) noteLocked(ts int64) {
	if ts > c.last {
		c.last = ts
	}
}

// clock returns (creating on first use) the arrival clock of a stream.
// The stream's existence is checked only on a registry miss, so unknown
// names never grow the map and the steady-state path costs one mutex.
func (db *DB) clock(stream string) (*streamClock, error) {
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	c, ok := db.clocks[stream]
	if !ok {
		if _, exists := db.eng.StreamSchema(stream); !exists {
			return nil, fmt.Errorf("datacell: unknown stream %q", stream)
		}
		c = &streamClock{}
		db.clocks[stream] = c
	}
	return c, nil
}

// New creates an empty instance.
func New() *DB {
	return &DB{eng: engine.New(), clocks: map[string]*streamClock{}}
}

func toSchema(cols []ColumnDef) (catalog.Schema, error) {
	if len(cols) == 0 {
		return catalog.Schema{}, fmt.Errorf("datacell: at least one column required")
	}
	s := catalog.Schema{}
	for _, c := range cols {
		s.Cols = append(s.Cols, catalog.Column{Name: c.Name, Type: c.Type})
	}
	return s, nil
}

// RegisterStream declares a stream with the given columns.
func (db *DB) RegisterStream(name string, cols ...ColumnDef) error {
	s, err := toSchema(cols)
	if err != nil {
		return err
	}
	return db.eng.RegisterStream(name, s)
}

// MustRegisterStream is RegisterStream panicking on error.
func (db *DB) MustRegisterStream(name string, cols ...ColumnDef) {
	if err := db.RegisterStream(name, cols...); err != nil {
		panic(err)
	}
}

// RegisterTable declares a persistent table with the given columns.
func (db *DB) RegisterTable(name string, cols ...ColumnDef) error {
	s, err := toSchema(cols)
	if err != nil {
		return err
	}
	return db.eng.RegisterTable(name, s)
}

// MustRegisterTable is RegisterTable panicking on error.
func (db *DB) MustRegisterTable(name string, cols ...ColumnDef) {
	if err := db.RegisterTable(name, cols...); err != nil {
		panic(err)
	}
}

// InsertRows appends rows into a persistent table.
func (db *DB) InsertRows(table string, rows ...[]Value) error {
	if len(rows) == 0 {
		return nil
	}
	cols, err := rowsToCols(rows)
	if err != nil {
		return err
	}
	return db.eng.InsertTable(table, cols)
}

// validateEventTimes rejects the malformed explicit-timestamp batches that
// would otherwise corrupt basket ordering deep inside the engine: a
// timestamp count that does not match the row count, and timestamps that
// go backwards within the batch.
func validateEventTimes(api string, ts []int64, rows int) error {
	if len(ts) != rows {
		return fmt.Errorf("datacell: %s: %d timestamps for %d rows", api, len(ts), rows)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return fmt.Errorf("datacell: %s: non-monotonic timestamps (ts[%d]=%d < ts[%d]=%d)",
				api, i, ts[i], i-1, ts[i-1])
		}
	}
	return nil
}

// Append delivers stream tuples (the receptor side). All rows of one call
// share a single arrival timestamp — the wall clock in microseconds,
// bumped when needed so consecutive calls get strictly increasing stamps.
//
// Append is the row-oriented compatibility path: each field is boxed as a
// Value and transposed to columns before reaching the kernel. Hot ingest
// paths should build a Batch and use AppendBatch instead.
func (db *DB) Append(stream string, rows ...[]Value) error {
	if len(rows) == 0 {
		return nil
	}
	c, err := db.clock(stream)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := make([]int64, len(rows))
	now := c.stampLocked()
	for i := range ts {
		ts[i] = now
	}
	return db.eng.AppendRows(stream, rows, ts)
}

// AppendAt delivers stream tuples with explicit event timestamps
// (microseconds), required for time-based windows with event-time
// semantics. It requires exactly one timestamp per row, in non-decreasing
// order.
func (db *DB) AppendAt(stream string, ts []int64, rows ...[]Value) error {
	if err := validateEventTimes("AppendAt", ts, len(rows)); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	c, err := db.clock(stream)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := db.eng.AppendRows(stream, rows, ts); err != nil {
		return err
	}
	c.noteLocked(ts[len(ts)-1])
	return nil
}

// SetWatermark advances a stream's event-time watermark so time windows
// can close without further tuples.
func (db *DB) SetWatermark(stream string, tsMicros int64) error {
	return db.eng.SetWatermark(stream, tsMicros)
}

func rowsToCols(rows [][]Value) ([]*vector.Vector, error) {
	arity := len(rows[0])
	cols := make([]*vector.Vector, arity)
	for i := range cols {
		cols[i] = vector.New(rows[0][i].Typ, len(rows))
	}
	for _, r := range rows {
		if len(r) != arity {
			return nil, fmt.Errorf("datacell: ragged rows (%d vs %d values)", len(r), arity)
		}
		for i, v := range r {
			cols[i].AppendValue(v)
		}
	}
	return cols, nil
}

// Query is a registered continuous query.
//
// Its windows go into a result log — the paper's output basket — and every
// reader is a cursor of its own on that log: each Subscribe channel and
// each Query.Tap cursor, any number of them at once. Until the first
// reader opens, the query's in-process cursor holds the windows — a
// recovered query's replay among them — and Results drains it. The first
// Tap or Subscribe takes over what it has not read; every later reader
// starts at the newest window. When a reader's cursor closes, by cancel
// or Close, its unread windows go with it.
type Query struct {
	db *DB
	cq *engine.ContinuousQuery

	log *resultLog
	own *Cursor // the in-process cursor, until the first reader opens

	// delivered and dropped accumulate across subscriptions.
	delivered, dropped atomic.Int64
}

// newQuery returns a query with its result log and in-process cursor; the
// caller sets cq.
func newQuery(db *DB) *Query {
	q := &Query{db: db, log: &resultLog{end: make(chan struct{})}, own: &Cursor{opts: unbounded}}
	q.log.moved.L = &q.log.mu
	q.log.open(q.own, nil)
	return q
}

// Register compiles and installs a continuous query written in the
// DataCell SQL dialect (see the package documentation and README).
func (db *DB) Register(query string, opts Options) (*Query, error) {
	q := newQuery(db)
	cq, err := db.eng.Register(query, engine.Options{
		Mode:           opts.Mode,
		AutoThreshold:  opts.AutoThreshold,
		Chunks:         opts.Chunks,
		AdaptiveChunks: opts.AdaptiveChunks,
		Parallelism:    opts.Parallelism,
		OnResult:       q.deliver,
	})
	if err != nil {
		return nil, err
	}
	q.cq = cq
	return q, nil
}

// deliver appends one engine result to the log. It runs on the goroutine
// executing the query step (a scheduler worker or the Pump caller), so a
// Block cursor applies backpressure to the query itself.
func (q *Query) deliver(er *engine.Result) {
	q.log.append(&Result{
		Window:       er.Window,
		Table:        er.Table,
		Latency:      time.Duration(er.Stats.TotalNS),
		MainLatency:  time.Duration(er.Stats.MainNS),
		MergeLatency: time.Duration(er.Stats.MergeNS),
	})
}

// Results drains and returns the windows the in-process cursor holds:
// everything produced so far until the first Subscribe or Tap, nothing
// after it.
func (q *Query) Results() []*Result {
	var out []*Result
	for r, ok := q.own.next(); ok; r, ok = q.own.next() {
		out = append(out, r)
	}
	return out
}

// Tap opens a cursor on the query's result log. The first Tap or Subscribe
// of a query takes over the in-process cursor's unread results — a
// recovered query's replay among them; any later one starts at the newest
// window. Close the cursor when done: an open cursor pins the log.
func (q *Query) Tap(opts CursorOptions) *Cursor {
	c := &Cursor{opts: opts}
	q.log.open(c, q.own)
	return c
}

// Windows reports how many window results have been produced.
func (q *Query) Windows() int { return q.cq.Windows() }

// SQL returns the query text.
func (q *Query) SQL() string { return q.cq.SQL }

// Mode returns the execution mode.
func (q *Query) Mode() Mode { return q.cq.Mode }

// Explain returns a human-readable description of the query's physical
// plan. For incremental queries it includes the rewrite's stage programs,
// the canonical fragment fingerprint, and whether the pre-merge fragment
// is currently shared with other standing queries ("shared×N").
func (q *Query) Explain() string { return q.cq.Explain() }

// Err returns the terminal error of this query's worker goroutine, or nil
// while the query is healthy. A failed query stops producing results until
// the scheduler is restarted (Stop then Run), which retries it.
func (q *Query) Err() error { return q.cq.Err() }

// Fingerprint returns the canonical fingerprint of the query's pre-merge
// fragment — the shared-plan catalog's interning key rendered as 16 hex
// digits — or "" when the plan has no canonical fragment (re-evaluation
// mode, joins, landmark windows). Queries with equal fingerprints compute
// bit-identical per-slide partials; the serving tier uses the fingerprint
// to label shared result streams in /metrics and QUERIES listings.
func (q *Query) Fingerprint() string { return q.cq.Fingerprint() }

// QueryStats is a point-in-time snapshot of one continuous query's
// cumulative runtime counters — the serving tier's /metrics export
// surface. All durations are cumulative across the query's lifetime.
type QueryStats struct {
	// Windows is the number of window results emitted.
	Windows int
	// Fragment, Shared, Merge and Total are the engine's cumulative stage
	// clock: fragment work the query evaluated itself, time spent adopting
	// shared work (fragment partials and merge heads) computed by other
	// queries, the merge, and total step wall time.
	Fragment, Shared, Merge, Total time.Duration
	// Scatter, Partition and Stitch are always zero: the merge has no
	// sharded stages. They are kept for callers that add them into the
	// merge time.
	Scatter, Partition, Stitch time.Duration
	// AdoptedSlides and LedSlides count slides the query adopted from the
	// shared-plan catalog versus evaluated itself and published.
	AdoptedSlides, LedSlides int64
	// AdoptedTails and LedTails count window merges whose shared merge
	// head was adopted from the tail catalog versus computed and published
	// by this query.
	AdoptedTails, LedTails int64
	// BatchedSlides counts slides drained more than one per firing (the
	// intra-query parallel cadence: Parallelism > 1 with a backlog).
	BatchedSlides int64
	// Join is the join-matrix update share of Fragment (stream-stream join
	// queries only): adaptive planning, build tables, cell evaluation.
	// BuildsReused counts matrix cells served by an interned per-basic-
	// window build table instead of building one (see Query.Explain).
	Join         time.Duration
	BuildsReused int64
	// JoinProbes and JoinHits count the window-level join index's work
	// (queries whose join qualifies for it, see Query.Explain): new rows
	// that probed the other side's index, one probe each, and the matching
	// pairs they found.
	JoinProbes, JoinHits int64
	// Delivered and Dropped count results handed to this query's
	// subscription channels versus discarded by a DropOldest subscription.
	Delivered, Dropped int64
	// Backlog counts the results the slowest result-log reader has not read.
	Backlog int
}

// Stats returns a snapshot of the query's cumulative runtime counters.
// It is safe to call concurrently with a running scheduler.
func (q *Query) Stats() QueryStats {
	st := q.cq.Stats()
	return QueryStats{
		Windows:       st.Windows,
		Fragment:      time.Duration(st.MainNS),
		Shared:        time.Duration(st.SharedNS),
		Merge:         time.Duration(st.MergeNS),
		Total:         time.Duration(st.TotalNS),
		AdoptedSlides: st.AdoptedSlides,
		LedSlides:     st.LedSlides,
		AdoptedTails:  st.AdoptedTails,
		LedTails:      st.LedTails,
		BatchedSlides: st.BatchedSlides,
		Join:          time.Duration(st.JoinNS),
		BuildsReused:  st.BuildsReused,
		JoinProbes:    st.JoinProbes,
		JoinHits:      st.JoinHits,
		Delivered:     q.delivered.Load(),
		Dropped:       q.dropped.Load(),
		Backlog:       q.log.backlog(),
	}
}

// IngestDuration reports the cumulative wall time spent in receptor-side
// loading (Append/AppendBatch and friends) across all streams — the
// ingest half of the /metrics export.
func (db *DB) IngestDuration() time.Duration { return time.Duration(db.eng.LoadNS()) }

// Close deregisters the query. If the scheduler is running, the query's
// worker is stopped first (blocking until any in-flight step finishes).
// Close may be called from a Subscribe consumer, even while a step is
// blocked on that consumer. Each Subscribe channel closes once its
// consumer has read what is left; Tap cursors read what is left, then
// report no more.
func (q *Query) Close() {
	q.log.close()
	q.db.eng.Deregister(q.cq)
}

// SetParallelism sets the DB-wide default for intra-query parallelism:
// queries registered afterwards with Options.Parallelism == 0 evaluate
// their independent basic-window fragments over up to n workers (n <= 1
// means sequential). A natural setting is runtime.NumCPU(). Results are
// unaffected — parallel and sequential evaluation are bit-identical.
func (db *DB) SetParallelism(n int) { db.eng.SetDefaultParallelism(n) }

// QueryOnce runs a one-time query over persistent tables.
func (db *DB) QueryOnce(query string) (*Table, error) { return db.eng.QueryOnce(query) }

// Pump synchronously fires every query that has enough buffered data and
// returns the number of steps executed, in registration order on the
// calling goroutine. Use it for deterministic processing (tests,
// benchmarks, batch drivers).
func (db *DB) Pump() (int, error) { return db.eng.Pump() }

// PumpParallel is the concurrent form of Pump: queries fire in parallel
// over a bounded pool of at most workers goroutines (workers <= 0 means
// GOMAXPROCS). Each query's steps stay ordered; cross-query interleaving
// does not. It returns once no query can fire anymore.
func (db *DB) PumpParallel(workers int) (int, error) { return db.eng.PumpParallel(workers) }

// Run starts the concurrent factory scheduler: every registered query gets
// its own worker goroutine, woken by the receptor side only when one of
// its input streams receives data, so independent queries process in
// parallel. Queries registered while running get workers immediately.
//
// Run is idempotent and restartable: after Stop, calling Run again clears
// any stored error (see Err) and resumes all queries from their buffered
// state. A query whose step fails stops producing (its error is reported
// by Err and Query.Err) without affecting other queries.
func (db *DB) Run() { db.eng.Start() }

// Stop halts the scheduler, blocking until in-flight window steps finish
// (no-op when not running). Buffered data stays in the baskets: a later
// Run or Pump resumes exactly where the workers left off. Per-query
// worker errors survive Stop and stay available via Err until the next
// Run.
func (db *DB) Stop() { db.eng.Stop() }

// Running reports whether the background scheduler is active.
func (db *DB) Running() bool { return db.eng.Running() }

// Err returns the first error any query worker has hit since the last Run
// (nil while all factories are healthy). Errors survive Stop — and Close
// of the failed query — and are cleared by the next Run, which retries
// the failed queries.
func (db *DB) Err() error { return db.eng.Err() }
