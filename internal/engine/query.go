package engine

import (
	"fmt"
	"sync"
	"time"

	"datacell/internal/basket"
	"datacell/internal/core"
	"datacell/internal/exec"
	"datacell/internal/plan"
	"datacell/internal/sql"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// Result is one window result delivered by a continuous query's emitter.
// Stats is the stage clock of the step that produced it (Stats.TotalNS is
// the step's wall time).
type Result struct {
	Window int // 1-based window number
	Table  *exec.Table
	Stats  core.StepStats
}

// DefaultAutoThreshold is the window size (tuples) above which Auto mode
// selects incremental processing.
const DefaultAutoThreshold = 4096

// Options configure a continuous query registration.
type Options struct {
	Mode Mode
	// AutoThreshold overrides the window-size cutoff used by Mode == Auto
	// (0 = DefaultAutoThreshold).
	AutoThreshold int64
	// Chunks enables the paper's "optimized incremental plans": each basic
	// window is processed in Chunks pieces as data arrives. 0/1 disables.
	Chunks int
	// AdaptiveChunks turns on the self-adapting controller of Fig 8.
	AdaptiveChunks bool
	// Parallelism bounds the worker goroutines used for intra-query
	// parallelism in incremental mode: the independent per-basic-window
	// fragments of buffered slides (and of multiple stream sources / join
	// cells within one slide) evaluate concurrently over shared segments.
	// 0 inherits the engine default (SetDefaultParallelism), 1 forces
	// sequential execution. Results are identical at any setting.
	Parallelism int
	// Baseline evaluates the query as the seed did: it attaches to no
	// shared fragment or merge tail (every slide is led privately), joins
	// run in written order and grouped merges through the instruction path
	// (see core.Options.Baseline). Results are bit-identical either way; it
	// exists because tests and internal/bench use that path as the
	// reference the default path is compared against.
	Baseline bool
	// OnResult is invoked synchronously for every produced window result.
	OnResult func(*Result)
}

// ContinuousQuery is a registered standing query: the paper's factory plus
// its baskets and emitter.
type ContinuousQuery struct {
	ID   string
	SQL  string
	Mode Mode

	eng    *Engine
	prog   *plan.Program
	rt     *core.Runtime
	inc    *core.IncPlan
	inputs []*queryInput // one per program source (nil basket for tables)
	seq    int           // registration order, for deterministic Pump

	// Re-evaluation mode: the split (per-part + combine) form of the plan
	// and the worker bound for fanning per-segment partials. reevalPP is
	// nil when the plan does not split (stream-stream joins, multiple
	// windowed sources) — those re-evaluate monolithically via exec.Run.
	reevalPP  *exec.PartialProgram
	reevalPar int

	onResult func(*Result)
	chunker  *ChunkController

	// stepMu serializes step execution: whether a step is fired by the
	// query's own worker goroutine, by a synchronous Engine.Pump, or by
	// Engine.PumpParallel, the query's steps stay totally ordered. The
	// emitter callback runs under stepMu, so results are ordered too.
	stepMu sync.Mutex

	// wake is the per-query wake channel. Receptors (Engine.Append,
	// Engine.SetWatermark) post to it after delivering data to one of the
	// query's baskets; the worker goroutine drains it. Capacity 1: a
	// pending wake-up already covers any number of appends. Each worker
	// generation gets a fresh channel (resetWake) so an exiting worker can
	// never consume its successor's wake-ups; guarded by statsMu.
	wake chan struct{}

	// statsMu guards the cumulative stats below and the worker's terminal
	// error. Step execution is already serialized by stepMu; statsMu exists
	// so readers (Stats, Err) are race-free against a running worker.
	statsMu sync.Mutex
	stats   Stats
	// frag and tail are the query's interned shared fragment and merge tail
	// (nil when the query is ineligible, runs as Baseline, or is already
	// deregistered). Guarded by statsMu so Deregister clearing them never
	// races a late synchronous pump.
	frag *sharedFragment
	tail *sharedTail
	err  error
	// emitting is true while the query's OnResult callback is running.
	// Deregister/Stop consult it to avoid self-deadlock when the callback
	// itself tears the scheduler down (see stopWorker).
	emitting bool
}

// emit invokes the result callback with the emitting flag set.
func (q *ContinuousQuery) emit(r *Result) {
	q.statsMu.Lock()
	q.emitting = true
	q.statsMu.Unlock()
	q.onResult(r)
	q.statsMu.Lock()
	q.emitting = false
	q.statsMu.Unlock()
}

func (q *ContinuousQuery) isEmitting() bool {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	return q.emitting
}

// sharing returns the query's shared fragment and merge tail; each is nil
// when that layer is off for this query (ineligible, Baseline, or already
// deregistered).
func (q *ContinuousQuery) sharing() (*sharedFragment, *sharedTail) {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	return q.frag, q.tail
}

// notifyData posts a non-blocking wake-up for the query's worker.
func (q *ContinuousQuery) notifyData() {
	q.statsMu.Lock()
	ch := q.wake
	q.statsMu.Unlock()
	select {
	case ch <- struct{}{}:
	default:
	}
}

// resetWake installs and returns a fresh wake channel for a new worker
// generation. The worker's initial drain covers anything appended before
// the swap, so wake-ups posted to the previous channel are never lost.
func (q *ContinuousQuery) resetWake() chan struct{} {
	ch := make(chan struct{}, 1)
	q.statsMu.Lock()
	q.wake = ch
	q.statsMu.Unlock()
	return ch
}

// Err returns the terminal error of the query's worker goroutine, or nil
// while the query is healthy. It is reset when the scheduler restarts.
func (q *ContinuousQuery) Err() error {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	return q.err
}

func (q *ContinuousQuery) setErr(err error) {
	q.statsMu.Lock()
	q.err = err
	q.statsMu.Unlock()
}

// queryInput tracks the per-source window accounting of one query: a
// cursor over the stream's shared segment log (read offset + retain
// horizon) plus the time-window bookkeeping. The query owns no stream
// data — expiring tuples advances the cursor, and the log reclaims whole
// segments once every subscriber's horizon has passed them.
type queryInput struct {
	q      *ContinuousQuery // owning factory, notified on new data
	srcIdx int
	stream string
	spec   *sql.WindowSpec
	cur    *basket.Cursor // nil for table sources

	// Time-based accounting. For count-based windows, readiness is purely
	// a cursor-length check: Reevaluation retains |W| tuples and fires once
	// it sees >= |W|; Incremental fires every |w|.
	boundary    int64 // exclusive upper bound of the next basic window
	firstTS     int64 // timestamp of the first tuple ever seen
	haveBound   bool
	watermark   int64
	chunkBuffer int // tuples already consumed as chunks of the current bw
}

func (qi *queryInput) advanceWatermarkLocked(ts int64) {
	if ts > qi.watermark {
		qi.watermark = ts
	}
}

// Register compiles and installs a continuous query. At least one source
// must be a windowed stream.
func (e *Engine) Register(query string, opts Options) (*ContinuousQuery, error) {
	return e.register(query, opts, nil, 0)
}

// register is the shared registration path. startAt, when non-nil, maps
// stream names to absolute cursor start offsets (recovery replay);
// otherwise cursors start at the current end of each log. presetSeq > 0
// pins the query's sequence number (and id q<seq>) instead of allocating
// a fresh one — recovery uses it to keep crashed-run ids stable.
func (e *Engine) register(query string, opts Options, startAt map[string]int64, presetSeq int) (*ContinuousQuery, error) {
	prog, err := plan.Compile(query, e.cat)
	if err != nil {
		return nil, err
	}
	hasWindow := false
	for _, src := range prog.Sources {
		if src.IsStream {
			if src.Window == nil {
				return nil, fmt.Errorf("engine: continuous query needs a window clause on stream %q", src.Ref)
			}
			hasWindow = true
		}
	}
	if !hasWindow {
		return nil, fmt.Errorf("engine: query reads no stream; use QueryOnce")
	}

	e.mu.Lock()
	seq := presetSeq
	if seq <= 0 {
		e.nextID++
		seq = e.nextID
	} else if seq > e.nextID {
		e.nextID = seq
	}
	id := fmt.Sprintf("q%d", seq)
	if _, dup := e.queries[id]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: query id %s already registered", id)
	}
	e.mu.Unlock()

	mode := opts.Mode
	if mode == Auto {
		mode = resolveAutoMode(prog, opts.AutoThreshold)
	}
	q := &ContinuousQuery{
		ID: id, SQL: query, Mode: mode, seq: seq,
		eng: e, prog: prog, onResult: opts.OnResult,
		wake: make(chan struct{}, 1),
	}
	if q.onResult == nil {
		q.onResult = func(*Result) {}
	}
	par := opts.Parallelism
	if par == 0 {
		e.mu.Lock()
		par = e.defaultPar
		e.mu.Unlock()
	}

	if q.Mode == Reevaluation {
		q.reevalPar = par
		q.reevalPP, _ = core.SplitForReevaluation(prog)
	}
	if q.Mode == Incremental {
		landmark := false
		n := 1
		for _, src := range prog.Sources {
			if src.IsStream && src.Window != nil {
				landmark = src.Window.Kind == sql.LandmarkWindow
				n = core.BasicWindows(src.Window)
			}
		}
		inc, err := core.Rewrite(prog, n, landmark)
		if err != nil {
			return nil, err
		}
		q.inc = inc
		q.rt = core.NewRuntimeOpts(inc, core.Options{Parallelism: par, Baseline: opts.Baseline})
		if opts.Chunks > 1 || opts.AdaptiveChunks {
			if inc.HasJoin {
				return nil, fmt.Errorf("engine: chunked processing supports single-stream plans only")
			}
			q.chunker = NewChunkController(opts.Chunks, opts.AdaptiveChunks)
		}
	}

	// Fragment-sharing eligibility: a single-stream incremental plan whose
	// per-bw fragment canonicalizes (a slide is a fixed positional log range:
	// incremental cursors discard on process) and no chunked processing
	// (chunks split the fragment across arrivals). Landmark plans are out:
	// their slots carry query-private cumulative state.
	var fragCanon, fragFP string
	if q.Mode == Incremental && !opts.Baseline && q.chunker == nil &&
		len(prog.Sources) == 1 && !q.inc.HasJoin && !q.inc.Landmark {
		fragCanon = q.inc.FragmentKey(0)
		fragFP = q.inc.FragmentFingerprint(0)
	}
	// Merge-tail sharing rides on fragment sharing (adopted heads re-group
	// interned, bit-identical slot files) and is limited to count windows:
	// only there does the absolute window END determine the window's exact
	// row range (end - N*slide rows), which is what keys the head cache.
	// Time windows anchor their slide grids at registration time, so two
	// queries can close windows at the same position with different spans.
	var tailCanon, tailFP string
	if fragCanon != "" {
		if w := prog.Sources[0].Window; w.Kind == sql.CountWindow && w.SlideDur == 0 {
			tailCanon = q.inc.MergeTailKey(0)
			tailFP = q.inc.MergeTailFingerprint(0)
		}
	}

	// Wire cursors onto the shared stream logs, recording each start
	// offset so the registration can be journaled (and replayed) exactly.
	starts := map[string]int64{}
	e.mu.Lock()
	for i, src := range prog.Sources {
		qi := &queryInput{q: q, srcIdx: i, stream: src.Name, spec: src.Window}
		if src.IsStream {
			si, ok := e.streams[src.Name]
			if !ok {
				// Unwind subscriptions wired so far: a half-registered
				// query must not keep pinning log segments.
				for _, prev := range q.inputs {
					e.detachLocked(prev)
				}
				e.mu.Unlock()
				return nil, fmt.Errorf("engine: unknown stream %q", src.Name)
			}
			if at, ok := startAt[src.Name]; ok {
				// Recovery replay: rewind to the persisted registration
				// offset (clamped to the retained log) so the query re-reads
				// the whole history it had consumed before the crash.
				qi.cur = si.log.NewCursorAt(at)
			} else {
				// The cursor starts at the current end of the log: a fresh
				// subscriber sees only tuples appended from now on.
				qi.cur = si.log.NewCursor()
			}
			qi.watermark = si.watermark
			qi.cur.Lock()
			pos := qi.cur.PosLocked()
			qi.cur.Unlock()
			starts[src.Name] = pos
			if fragCanon != "" {
				// Intern the query's fragment (and merge tail) in the stream's
				// shared-plan catalog, anchored at the cursor's absolute
				// position — a lower bound on every slide start and window
				// end this query will claim.
				q.frag = attach[core.SlotFile](si.shares, fragKey(fragCanon), fragFP, q, pos)
				if tailCanon != "" {
					q.tail = attach[*core.MergeHead](si.shares, tailKey(tailCanon), tailFP, q, pos)
				}
			}
			// Publish a fresh subscriber snapshot (copy-on-write) so
			// receptors can iterate the slice without cloning per append.
			subs := make([]*queryInput, len(si.subscribers)+1)
			copy(subs, si.subscribers)
			subs[len(subs)-1] = qi
			si.subscribers = subs
		}
		q.inputs = append(q.inputs, qi)
	}
	e.queries[id] = q
	e.mu.Unlock()

	// Journal the registration. On failure the query is unwound: a standing
	// query that would silently vanish on restart is worse than a failed
	// Register.
	def := storage.QueryDef{
		Seq: seq, SQL: query, Mode: uint8(opts.Mode),
		AutoThreshold:  opts.AutoThreshold,
		Chunks:         opts.Chunks,
		AdaptiveChunks: opts.AdaptiveChunks,
		Parallelism:    opts.Parallelism,
		Start:          starts,
	}
	if err := e.persistQuery(seq, &def); err != nil {
		e.Deregister(q)
		return nil, fmt.Errorf("engine: journal query %s: %w", id, err)
	}
	// If the scheduler is live, give the new factory its worker right away.
	e.maybeStartWorker(q)
	return q, nil
}

// Deregister removes a continuous query: it stops the query's worker (if
// the scheduler is running), waits for any in-flight step to finish, and
// only then closes the query's cursors. The order matters — closing a
// cursor drops its reclamation pin, so a step still reading through it
// could otherwise observe segments reclaimed underneath the view.
func (e *Engine) Deregister(q *ContinuousQuery) {
	e.mu.Lock()
	delete(e.queries, q.ID) // no new Pump/Start picks the query up
	e.mu.Unlock()
	e.stopWorker(q)
	if !q.isEmitting() {
		// Barrier against a concurrent synchronous Pump mid-step (a worker
		// is already joined by stopWorker). Skipped when the call comes
		// from inside the query's own OnResult callback — that step holds
		// stepMu and waiting would self-deadlock; closed cursors read as
		// empty, so the remainder of that step stays safe.
		q.stepMu.Lock()
		//lint:ignore SA2001 empty critical section is the join barrier
		q.stepMu.Unlock()
	}
	e.mu.Lock()
	// Release the query's shared-plan subscriptions (refcounted): the
	// caches stop holding partials for q, and disappear entirely when q was
	// their last subscriber.
	q.statsMu.Lock()
	frag, tail := q.frag, q.tail
	q.frag, q.tail = nil, nil
	q.statsMu.Unlock()
	if tail != nil {
		tail.detach(q)
	}
	if frag != nil {
		frag.detach(q)
	}
	for _, qi := range q.inputs {
		e.detachLocked(qi)
	}
	e.mu.Unlock()
	// Drop the registration from the manifest so a restart does not
	// resurrect the query. Best-effort: a failed journal write leaves a
	// stale entry whose replay the owner can Deregister again.
	_ = e.persistQuery(q.seq, nil)
}

// detachLocked removes one query input from its stream's subscriber
// snapshot (publishing a fresh copy) and closes its cursor so the log can
// reclaim the segments it was pinning. Caller holds e.mu. No-op for table
// inputs.
func (e *Engine) detachLocked(qi *queryInput) {
	if qi.cur == nil {
		return
	}
	si := e.streams[qi.stream]
	subs := make([]*queryInput, 0, len(si.subscribers))
	for _, sub := range si.subscribers {
		if sub != qi {
			subs = append(subs, sub)
		}
	}
	si.subscribers = subs
	qi.cur.Close()
}

// Stats is the cumulative snapshot of one query: the one stage clock
// (core.StepStats) summed over every step, plus the window and sharing
// counters. It is what datacell.Query.Stats and /metrics report.
type Stats struct {
	core.StepStats
	// Windows is the number of window results emitted.
	Windows int
	// AdoptedSlides and LedSlides count slides whose fragment partial the
	// query adopted from the shared-plan catalog versus evaluated itself and
	// published; AdoptedTails and LedTails count window merges whose head
	// was adopted versus computed and published. All zero for a query that
	// shares nothing.
	AdoptedSlides, LedSlides int64
	AdoptedTails, LedTails   int64
	// BatchedSlides counts slides drained more than one per firing — the
	// intra-query parallel cadence (Parallelism > 1 with a backlog).
	BatchedSlides int64
}

// Stats returns the query's cumulative stats; safe against a running
// worker.
func (q *ContinuousQuery) Stats() Stats {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	return q.stats
}

// Windows returns how many window results the query has emitted.
func (q *ContinuousQuery) Windows() int { return q.Stats().Windows }

// bumpWindows increments the emitted-window count and returns it.
func (q *ContinuousQuery) bumpWindows() int {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	q.stats.Windows++
	return q.stats.Windows
}

// Fingerprint returns the canonical fingerprint of the query's pre-merge
// fragment ("" when the plan has none — re-evaluation mode, joins,
// landmark windows, or otherwise non-canonicalizable fragments). Two
// standing queries with equal fingerprints compute bit-identical per-slide
// partials; the serving tier uses it one layer up to label shared result
// streams.
func (q *ContinuousQuery) Fingerprint() string {
	if q.inc == nil || len(q.prog.Sources) != 1 {
		return ""
	}
	return q.inc.FragmentFingerprint(0)
}

// Explain renders the query's rewritten plan plus its sharing decision:
// the canonical fragment fingerprint and how many queries currently
// subscribe to it, so sharing is observable without reading stats.
func (q *ContinuousQuery) Explain() string {
	s := fmt.Sprintf("query %s [%s]: %s\n", q.ID, q.Mode, q.SQL)
	if q.rt != nil {
		s += q.rt.Explain()
	}
	if q.inc != nil && q.inc.HasJoin {
		if q.rt == nil || !q.rt.AdaptiveJoin() {
			s += "join: written-order baseline, right side builds per cell\n"
		} else {
			s += fmt.Sprintf("join: build=right|left per cell (greedy, exact cardinalities), tables reused×%d\n", q.Stats().BuildsReused)
		}
	}
	if frag, tail := q.sharing(); frag != nil {
		s += fmt.Sprintf("fragment sharing: fingerprint %s shared×%d\n", frag.fp, frag.subscribers())
		if tail != nil {
			s += fmt.Sprintf("merge tail: fingerprint %s merge shared×%d\n", tail.fp, tail.subscribers())
		} else {
			s += "merge tail: private\n"
		}
	} else if q.Mode == Incremental {
		s += "fragment sharing: off (private evaluation)\n"
	}
	return s
}

// MergeKernels names the merge kernel each grouped merge block of the
// query's incremental plan runs through (see core.Runtime.MergeKernels);
// nil for re-evaluation queries.
func (q *ContinuousQuery) MergeKernels() []string {
	if q.rt == nil {
		return nil
	}
	return q.rt.MergeKernels()
}

// Chunker exposes the adaptive chunk controller (nil when disabled).
func (q *ContinuousQuery) Chunker() *ChunkController { return q.chunker }

// pump fires the query as many times as buffered data allows and returns
// the number of window slides executed. Safe to call from any goroutine:
// stepMu keeps the query's steps totally ordered.
func (q *ContinuousQuery) pump() (int, error) { return q.pumpUntil(nil) }

// pumpUntil is pump with an optional cancellation channel, checked between
// firings so a worker being stopped abandons its drain after at most one
// more firing (remaining data stays buffered for the next scheduler). One
// firing covers one window slide, or a whole batch of buffered slides when
// the query has parallel workers; the returned count is always slides.
func (q *ContinuousQuery) pumpUntil(stop <-chan struct{}) (int, error) {
	q.stepMu.Lock()
	defer q.stepMu.Unlock()
	steps := 0
	for {
		if stop != nil {
			select {
			case <-stop:
				return steps, nil
			default:
			}
		}
		n, err := q.fireOnce()
		if err != nil {
			return steps, err
		}
		if n == 0 {
			return steps, nil
		}
		steps += n
	}
}

// resolveAutoMode implements the paper's hybrid suggestion: below the
// threshold the incremental bookkeeping costs more than it saves, so
// re-evaluate; above it, process incrementally. Landmark windows always
// favour incremental (their re-evaluation cost grows without bound).
func resolveAutoMode(prog *plan.Program, threshold int64) Mode {
	if threshold <= 0 {
		threshold = DefaultAutoThreshold
	}
	for _, src := range prog.Sources {
		if !src.IsStream || src.Window == nil {
			continue
		}
		switch src.Window.Kind {
		case sql.LandmarkWindow:
			return Incremental
		case sql.CountWindow:
			if src.Window.Rows >= threshold {
				return Incremental
			}
		case sql.TimeWindow:
			// Without a rate estimate, prefer incremental for windows
			// spanning many slides (>= 8 basic windows).
			if core.BasicWindows(src.Window) >= 8 {
				return Incremental
			}
		}
	}
	return Reevaluation
}

// fireOnce checks readiness and, if possible, executes one firing (one or
// more buffered slides). It returns the number of window slides executed —
// 0 when the query cannot fire.
func (q *ContinuousQuery) fireOnce() (int, error) {
	switch q.Mode {
	case Incremental:
		return q.fireIncremental()
	default:
		return q.fireReevaluation()
	}
}

// consumable computes how many tuples source qi's next slide would consume
// now (need is the count-window slide size still outstanding); ok is false
// if the source lacks data or its watermark has not closed the slide.
func (q *ContinuousQuery) consumable(qi *queryInput, need int) (int, bool) {
	qi.cur.Lock()
	defer qi.cur.Unlock()
	if qi.spec.Kind == sql.TimeWindow || qi.spec.SlideDur > 0 {
		// Time-based: the basic window closes when the watermark passes
		// the boundary.
		if !qi.haveBound {
			if qi.cur.LenLocked() == 0 {
				return 0, false
			}
			first := qi.cur.TimestampsLocked(0, 1)[0]
			qi.boundary = first + qi.slideMicros()
			qi.haveBound = true
		}
		if qi.watermark < qi.boundary {
			return 0, false
		}
		return qi.cur.CountUntilLocked(qi.boundary), true
	}
	if qi.cur.LenLocked() < need {
		return 0, false
	}
	return need, true
}

func (qi *queryInput) slideMicros() int64 {
	if qi.spec.SlideDur > 0 {
		return qi.spec.SlideDur.Microseconds()
	}
	return 0
}

// fireIncremental is the one incremental firing path: plan the buffered
// slides, then fire them as one batch. A single slide, private evaluation,
// multi-source joins, landmark and chunked queries are its degenerate
// cases.
func (q *ContinuousQuery) fireIncremental() (int, error) {
	// Chunked processing consumes fractions of the basic window early.
	if q.chunker != nil {
		if err := q.pumpChunks(); err != nil {
			return 0, err
		}
	}
	// Determine per-source consumption of the next slide.
	counts := make([]int, len(q.inputs))
	for _, qi := range q.inputs {
		if qi.cur == nil {
			continue
		}
		c, ok := q.consumable(qi, int(qi.spec.SlideRows)-qi.chunkBuffer)
		if !ok {
			return 0, nil
		}
		counts[qi.srcIdx] = c
	}
	// Without parallel workers take one slide per firing — one window per
	// fire; with workers, take every buffered slide (in bounded bites of 4x
	// the worker count) so their per-bw fragments evaluate concurrently. A
	// chunked query's next slide is partly consumed already, so its slides
	// do not sit at a fixed stride.
	kMax := 1
	if q.rt.Parallelism() > 1 && q.chunker == nil {
		kMax = q.rt.Parallelism() * 4
	}
	return q.fireSlides(q.slidePlan(counts, kMax))
}

// slideBatch describes k >= 1 buffered slides ready to fire together: for
// every stream source, ends[srcIdx] holds the cumulative tuple count
// consumed from that source after each slide (ascending, len k) — slide
// sl's basic window is the cursor-relative range [start(sl), ends[sl]).
type slideBatch struct {
	k    int
	ends [][]int
}

// start is the cursor-relative offset where slide sl of source src begins.
func (b *slideBatch) start(src, sl int) int {
	if sl == 0 {
		return 0
	}
	return b.ends[src][sl-1]
}

// slidePlan computes the batch of up to kMax complete, watermark-closed
// slides available right now; counts is the next slide's consumption per
// source (every source has at least that one slide ready). Two window
// shapes have precomputable slide ends and batch beyond one slide: pure
// count-based windows (every slide consumes a fixed count) and pure
// time-based windows, whose next k boundaries are successive
// watermark-closed timestamps — bursty event-time backlogs drain in
// batches just like count backlogs. Landmark and mixed count/time shapes
// fire one slide, built from counts.
func (q *ContinuousQuery) slidePlan(counts []int, kMax int) *slideBatch {
	b := &slideBatch{k: kMax, ends: make([][]int, len(q.inputs))}
	for _, qi := range q.inputs {
		if qi.cur == nil {
			continue
		}
		switch {
		case qi.spec.Kind == sql.CountWindow && qi.spec.SlideDur == 0:
			qi.cur.Lock()
			avail := qi.cur.LenLocked() / counts[qi.srcIdx]
			qi.cur.Unlock()
			if avail < b.k {
				b.k = avail
			}
		case qi.spec.Kind == sql.TimeWindow && qi.spec.SlideDur > 0:
			// Precompute the successive basic-window boundaries the
			// watermark already closes; each CountUntil is the cumulative
			// consumption after that slide.
			slide := qi.slideMicros()
			ends := make([]int, 0, kMax)
			qi.cur.Lock()
			for i := 0; i < kMax; i++ {
				bound := qi.boundary + int64(i)*slide
				if qi.watermark < bound {
					break
				}
				ends = append(ends, qi.cur.CountUntilLocked(bound))
			}
			qi.cur.Unlock()
			if len(ends) < b.k {
				b.k = len(ends)
			}
			b.ends[qi.srcIdx] = ends
		default:
			b.k = 1
		}
	}
	for _, qi := range q.inputs {
		if qi.cur == nil {
			continue
		}
		if ends := b.ends[qi.srcIdx]; ends != nil {
			b.ends[qi.srcIdx] = ends[:b.k]
			continue
		}
		w := counts[qi.srcIdx]
		ends := make([]int, b.k)
		for sl := range ends {
			ends[sl] = (sl + 1) * w
		}
		b.ends[qi.srcIdx] = ends
	}
	return b
}

// slideViews takes the basic-window views of the listed slides under each
// log's lock; they are then read unlocked: sealed segments are immutable
// and the tail is append-only, so the views stay consistent while receptors
// keep appending — query processing never blocks ingest. The positional
// ranges are stable too: only this query's own firing (serialized by
// stepMu) moves its cursors. views[i][srcIdx] belongs to slide which[i].
func (q *ContinuousQuery) slideViews(b *slideBatch, which []int) [][][]vector.View {
	views := make([][][]vector.View, len(which))
	for i := range views {
		views[i] = make([][]vector.View, len(q.inputs))
	}
	for _, qi := range q.inputs {
		if qi.cur == nil {
			continue
		}
		qi.cur.Lock()
		for i, sl := range which {
			views[i][qi.srcIdx] = qi.cur.ViewLocked(b.start(qi.srcIdx, sl), b.ends[qi.srcIdx][sl]).ColViews()
		}
		qi.cur.Unlock()
	}
	return views
}

// fireSlides fires the buffered slides of a slideBatch — the one function
// that drives core.Runtime through incremental slides:
//
//	plan slides → claim → eval → publish → adopt → apply → emit
//
// With a shared fragment (q.frag) the query claims each slide's absolute
// log range in the stream's catalog: the first claimant (leader) evaluates
// the fragment and publishes the slot file, every other subscriber adopts
// it without re-evaluating. Without one, every slide is led privately and
// nothing is published. Merge tails (q.tail) exchange each closed window's
// grouped head the same way, from inside the apply stage. Results are
// bit-identical whichever query computed a partial, including float
// accumulation order. See partialCache for why the waits cannot deadlock.
func (q *ContinuousQuery) fireSlides(b *slideBatch) (int, error) {
	k := b.k
	t0 := time.Now()
	inputs, err := q.eng.tableInputs(q.prog)
	if err != nil {
		return 0, err
	}
	frag, tail := q.sharing()

	// Claim every slide's range up front so our leadership set is fixed
	// before any evaluation or waiting happens. claims[sl] is nil for a
	// slide led privately; lead[sl] is false for a slide to adopt.
	claims := make([]*partial[core.SlotFile], k)
	lead := make([]bool, k)
	var base int64 // absolute log position of the shared source's cursor
	var ends []int
	if frag != nil {
		qi := q.inputs[0] // sharing eligibility requires a single stream source
		ends = b.ends[qi.srcIdx]
		qi.cur.Lock()
		base = qi.cur.PosLocked()
		qi.cur.Unlock()
		for sl := range claims {
			claims[sl], lead[sl] = frag.acquire(base+int64(b.start(qi.srcIdx, sl)), base+int64(ends[sl]))
		}
		// Whatever happens below, owed partials must be released: followers
		// of an aborted leader recompute privately instead of hanging.
		defer func() {
			for sl, p := range claims {
				if lead[sl] && p != nil {
					p.publish(nil, errPartialAborted)
				}
			}
		}()
	} else {
		for sl := range lead {
			lead[sl] = true
		}
	}

	// Merge-tail sharing: claim the head of every window this batch closes.
	// Leaders publish from inside the merge (the Publish hook) the moment
	// the grouped block completes; followers block in Fetch.
	var tails []*core.TailExchange
	var tailWait []int64           // per-slide adoption wait (ns), written in Fetch
	var tailAdopted, tailLed int64 // window merges adopted vs led
	if tail != nil {
		tails = make([]*core.TailExchange, k)
		tailWait = make([]int64, k)
		owed := make([]*partial[*core.MergeHead], 0, k)
		for sl := range tails {
			p, led := tail.acquire(base+int64(ends[sl]), 0)
			if led {
				owed = append(owed, p)
				tails[sl] = &core.TailExchange{Publish: func(h *core.MergeHead, err error) {
					if h == nil && err == nil {
						// Nothing merged (window still filling) or the head
						// was not capturable: followers merge privately.
						err = errPartialAborted
					}
					p.publish(h, err)
				}}
			} else {
				tails[sl] = &core.TailExchange{Fetch: func() (*core.MergeHead, error) {
					tw := time.Now()
					p.wait()
					tailWait[sl] = time.Since(tw).Nanoseconds()
					if p.err == nil {
						tailAdopted++
					}
					return p.val, p.err
				}}
			}
		}
		tailLed = int64(len(owed))
		// Owed heads must be released even if the step errors out mid-batch.
		defer func() {
			for _, p := range owed {
				p.publish(nil, errPartialAborted)
			}
		}()
	}

	// Evaluate the slides this query leads (including extent-mismatch slides
	// it computes privately) in one fan-out, and publish them.
	files := make([][]core.SlotFile, k)
	var evalNS int64
	led := make([]int, 0, k)
	for sl := range lead {
		if lead[sl] {
			led = append(led, sl)
		}
	}
	if len(led) > 0 {
		out, ns, err := q.rt.EvalFragments(q.slideViews(b, led), inputs)
		if err != nil {
			return 0, err
		}
		evalNS = ns
		for i, sl := range led {
			files[sl] = out[i]
			if claims[sl] != nil {
				claims[sl].publish(out[i][0], nil)
			}
		}
	}

	// Adopt the slides another query leads. All our own partials are
	// published by now, so blocking here cannot deadlock the catalog.
	var waitNS int64
	adopted := make([]bool, k)
	nAdopted := 0
	for sl, p := range claims {
		if lead[sl] {
			continue
		}
		tw := time.Now()
		p.wait()
		waitNS += time.Since(tw).Nanoseconds()
		if p.err != nil {
			// The leader aborted; fall back to evaluating privately.
			own, ns, err := q.rt.EvalFragments(q.slideViews(b, []int{sl}), inputs)
			if err != nil {
				return 0, err
			}
			evalNS += ns
			files[sl] = own[0]
			continue
		}
		files[sl] = []core.SlotFile{p.val}
		adopted[sl] = true
		nAdopted++
	}

	// Apply: the serial tail of every slide, in order. The fragment cost is
	// spread evenly over the slides this query evaluated itself.
	fragNS := make([]int64, k)
	for sl := range fragNS {
		if !adopted[sl] {
			fragNS[sl] = evalNS / int64(k-nAdopted)
		}
	}
	results, err := q.rt.Apply(files, fragNS, inputs, tails)
	if err != nil {
		return 0, err
	}

	// Incremental plans retain state in slots, so processed tuples expire
	// immediately (the paper's "Discarding Input"): one cursor advance past
	// the whole batch — whole segments are reclaimed once every subscriber
	// passed them — and time-window boundaries jump k slides forward.
	for _, qi := range q.inputs {
		if qi.cur == nil {
			continue
		}
		qi.cur.Lock()
		qi.cur.AdvanceLocked(b.ends[qi.srcIdx][k-1])
		if qi.haveBound {
			qi.boundary += int64(k) * qi.slideMicros()
		}
		qi.chunkBuffer = 0
		qi.cur.Unlock()
	}
	if frag != nil {
		frag.consumedTo(q, base+int64(ends[k-1]))
	}
	if tail != nil {
		tail.consumedTo(q, base+int64(ends[k-1])+1)
	}

	q.statsMu.Lock()
	if k > 1 {
		q.stats.BatchedSlides += int64(k)
	}
	if frag != nil {
		q.stats.AdoptedSlides += int64(nAdopted)
		q.stats.LedSlides += int64(k - nAdopted)
	}
	q.stats.AdoptedTails += tailAdopted
	q.stats.LedTails += tailLed
	q.statsMu.Unlock()
	stepNS := time.Since(t0).Nanoseconds() / int64(k)
	for sl := range results {
		st := &results[sl].Stats
		st.TotalNS = stepNS
		if adopted[sl] {
			st.SharedNS = waitNS / int64(nAdopted)
		}
		if tailWait != nil && tailWait[sl] > 0 {
			// The adoption wait ran inside the merge; reattribute it from
			// the merge lump to shared time so stage sums stay meaningful.
			if st.MergeNS > tailWait[sl] {
				st.MergeNS -= tailWait[sl]
			}
			st.SharedNS += tailWait[sl]
		}
		q.account(*st)
		if q.chunker != nil {
			q.chunker.Observe(st.MainNS + st.PartitionNS + st.MergeNS)
		}
		if results[sl].Table != nil {
			q.emit(&Result{Window: q.bumpWindows(), Table: results[sl].Table, Stats: *st})
		}
	}
	return k, nil
}

// pumpChunks processes early chunks of the current basic window while
// enough tuples are buffered but the window is not yet complete.
func (q *ContinuousQuery) pumpChunks() error {
	qi := q.inputs[0]
	for _, cand := range q.inputs {
		if cand.cur != nil {
			qi = cand
			break
		}
	}
	if qi.cur == nil || qi.spec.Kind != sql.CountWindow {
		return nil
	}
	w := int(qi.spec.SlideRows)
	m := q.chunker.M()
	if m <= 1 {
		return nil
	}
	chunk := w / m
	if chunk == 0 {
		return nil
	}
	for {
		remaining := w - qi.chunkBuffer
		if remaining <= chunk {
			return nil // final piece handled by fireSlides
		}
		qi.cur.Lock()
		if qi.cur.LenLocked() < chunk {
			qi.cur.Unlock()
			return nil
		}
		view := qi.cur.ViewLocked(0, chunk).ColViews()
		qi.cur.Unlock()
		inputs, err := q.eng.tableInputs(q.prog)
		if err != nil {
			return err
		}
		if err := q.rt.PushChunk(qi.srcIdx, view, inputs); err != nil {
			return err
		}
		qi.cur.Lock()
		qi.cur.AdvanceLocked(chunk)
		qi.cur.Unlock()
		qi.chunkBuffer += chunk
	}
}

// fireReevaluation re-runs the original plan over the full window every
// slide (the DataCellR baseline): Algorithm 1 of the paper.
func (q *ContinuousQuery) fireReevaluation() (int, error) {
	type viewPlan struct {
		qi     *queryInput
		view   int // tuples in the window view
		expire int // tuples to delete after processing
	}
	var plans []viewPlan
	emit := true
	for _, qi := range q.inputs {
		if qi.cur == nil {
			continue
		}
		qi.cur.Lock()
		switch {
		case qi.spec.Kind == sql.CountWindow:
			if qi.cur.LenLocked() < int(qi.spec.Rows) {
				qi.cur.Unlock()
				return 0, nil
			}
			plans = append(plans, viewPlan{qi: qi, view: int(qi.spec.Rows), expire: int(qi.spec.SlideRows)})
		case qi.spec.Kind == sql.LandmarkWindow && qi.spec.SlideRows > 0:
			need := int(qi.spec.SlideRows) * (q.Windows() + 1)
			if qi.cur.LenLocked() < need {
				qi.cur.Unlock()
				return 0, nil
			}
			plans = append(plans, viewPlan{qi: qi, view: need})
		default: // time-based sliding or landmark window
			if !qi.haveBound {
				if qi.cur.LenLocked() == 0 {
					qi.cur.Unlock()
					return 0, nil
				}
				qi.firstTS = qi.cur.TimestampsLocked(0, 1)[0]
				qi.boundary = qi.firstTS + qi.spec.SlideDur.Microseconds()
				qi.haveBound = true
			}
			if qi.watermark < qi.boundary {
				qi.cur.Unlock()
				return 0, nil
			}
			view := qi.cur.CountUntilLocked(qi.boundary)
			expire := 0
			if qi.spec.Kind == sql.TimeWindow {
				if qi.boundary-qi.firstTS < qi.spec.Dur.Microseconds() {
					// Window not yet full: slide silently, like the
					// incremental preface.
					emit = false
				} else {
					expire = qi.cur.CountUntilLocked(qi.boundary - qi.spec.Dur.Microseconds() + qi.spec.SlideDur.Microseconds())
				}
			}
			plans = append(plans, viewPlan{qi: qi, view: view, expire: expire})
		}
		qi.cur.Unlock()
	}
	if len(plans) == 0 {
		return 0, nil
	}

	t0 := time.Now()
	inputs, err := q.eng.tableInputs(q.prog)
	if err != nil {
		return 0, err
	}
	var tbl *exec.Table
	var split bool
	var splitStats exec.PartialStats
	if emit {
		// Window views are taken under each log's lock but evaluated
		// unlocked (immutable segments, append-only tail): re-running the
		// full window never blocks receptors. The views are bound as
		// multi-part segment views — re-evaluation windows usually span
		// many segments, and the part-aware operators save the full-window
		// contiguous copy every slide.
		for _, p := range plans {
			p.qi.cur.Lock()
			inputs[p.qi.srcIdx] = exec.Input{Views: p.qi.cur.ViewLocked(0, p.view).ColViews()}
			p.qi.cur.Unlock()
		}
		// Segment-parallel re-evaluation: when the plan splits and the
		// window spans several segments, evaluate the per-part prefix of
		// each segment's share across the worker bound (inline when the
		// bound is 1) and combine serially. The split form is used at
		// every Parallelism setting so the result — including the float
		// accumulation association, which follows segment boundaries like
		// incremental mode's basic-window partials — never depends on the
		// worker count.
		if q.reevalPP != nil {
			if parts := splitColParts(inputs[q.reevalPP.Source].Views); len(parts) > 1 {
				tbl, splitStats, err = q.reevalPP.Run(parts, inputs, q.reevalPar)
				split = true
			}
		}
		if !split {
			tbl, err = exec.Run(q.prog, inputs)
		}
	}
	if err == nil {
		for _, p := range plans {
			p.qi.cur.Lock()
			// Expiration is a cursor advance; the log reclaims whole
			// segments once the minimum horizon passes them.
			p.qi.cur.AdvanceLocked(p.expire)
			if p.qi.haveBound {
				p.qi.boundary += p.qi.spec.SlideDur.Microseconds()
			}
			p.qi.cur.Unlock()
		}
	}
	if err != nil {
		return 0, err
	}
	if !emit {
		return 1, nil
	}
	stepNS := time.Since(t0).Nanoseconds()
	stats := core.StepStats{MainNS: stepNS, TotalNS: stepNS, Emitted: true, ResultRows: tbl.NumRows()}
	if split {
		// The split run knows its own stage boundary: the parallel per-part
		// scan is fragment work, the serial combine is merge work.
		stats.MainNS = splitStats.PartialNS
		stats.MergeNS = splitStats.CombineNS
	}
	q.account(stats)
	q.emit(&Result{Window: q.bumpWindows(), Table: tbl, Stats: stats})
	return 1, nil
}

// splitColParts slices a window's aligned multi-part column views into
// per-segment part groups: parts[i][c] is column c's contiguous slice of
// segment i. All columns of one basket view share the same segmentation,
// so the first column's part lengths drive the cut.
func splitColParts(cols []vector.View) [][]vector.View {
	if len(cols) == 0 {
		return nil
	}
	var lens []int
	cols[0].ForEachPart(func(_ int, p *vector.Vector) { lens = append(lens, p.Len()) })
	if len(lens) <= 1 {
		return nil
	}
	parts := make([][]vector.View, len(lens))
	off := 0
	for i, n := range lens {
		parts[i] = make([]vector.View, len(cols))
		for c := range cols {
			parts[i][c] = cols[c].Slice(off, off+n)
		}
		off += n
	}
	return parts
}

// account adds one step's stage clock to the query's cumulative stats.
func (q *ContinuousQuery) account(stats core.StepStats) {
	q.statsMu.Lock()
	q.stats.StepStats.Add(stats)
	q.statsMu.Unlock()
}
