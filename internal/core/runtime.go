package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"datacell/internal/algebra"
	"datacell/internal/exec"
	"datacell/internal/plan"
	"datacell/internal/vector"
)

// StepStats is the one stage clock: where a slide spent its time, refining
// the paper's Fig 7 cost breakdown. The runtime fills it per slide, the
// engine adds the two fields only it can know (SharedNS, TotalNS), and the
// same record — summed with Add — is the query's cumulative clock all the
// way to /metrics. MainNS is the fragment cost (per-basic-window and
// per-cell fragments of the original plan); MergeNS is the merge cost:
// merge-state upkeep (delta blocks, matrix panes) and the serial
// merge/compensation stage.
type StepStats struct {
	MainNS  int64
	MergeNS int64
	// SharedNS is the time spent adopting work another query computed — a
	// shared fragment partial or merge head (registry wait plus handoff).
	// Filled by the engine; zero on slides this query led itself.
	SharedNS int64
	// TotalNS is the wall time of the step, filled by the engine (a firing
	// that drains k slides charges each an equal share).
	TotalNS int64
	// JoinNS is the join-matrix update cost of the slide — planning, build
	// tables, cell evaluation — on both the adaptive and the written-order
	// path, so the two are directly comparable; on the join index path it
	// is inserting, probing and folding hits into panes. It is a subset of
	// MainNS. Folding new cells into matrix panes and expiring panes is
	// merge work, counted in MergeNS.
	JoinNS int64
	// BuildsReused counts the slide's join-matrix cells served by an
	// interned build table instead of building one: probing cells minus
	// tables built this slide. Zero on the written-order and index paths.
	BuildsReused int64
	// JoinProbes and JoinHits count the join index's work: the new rows of
	// both sides that probed the other side's index (one probe each) and
	// the matching pairs they found. Zero off the index path.
	JoinProbes, JoinHits int64
	// Emitted reports whether this step produced a window result (false
	// while the preface, i.e. the first window, is still filling).
	Emitted bool
	// ResultRows is the result cardinality when Emitted.
	ResultRows int
}

// Add accumulates o into s: clocks and counts sum, Emitted is sticky.
func (s *StepStats) Add(o StepStats) {
	s.MainNS += o.MainNS
	s.MergeNS += o.MergeNS
	s.SharedNS += o.SharedNS
	s.TotalNS += o.TotalNS
	s.JoinNS += o.JoinNS
	s.BuildsReused += o.BuildsReused
	s.JoinProbes += o.JoinProbes
	s.JoinHits += o.JoinHits
	s.Emitted = s.Emitted || o.Emitted
	s.ResultRows += o.ResultRows
}

// StepResult is one window slide's outcome within an Apply: the result
// table (nil while the first window is still filling) plus its stats.
type StepResult struct {
	Table *exec.Table
	Stats StepStats
}

// MergeHead is the output of a plan's grouped merge block — the merged key
// columns (KeyOuts order) and the compensating aggregate columns (Aggs
// order). It is the unit of merge-tail sharing: a published head's columns
// are freshly allocated by the block and immutable afterwards, so queries
// with equal MergeTailKeys at the same absolute window end can adopt one
// head read-only and run only their residual tail over it.
type MergeHead struct {
	Keys []*vector.Vector
	Aggs []*vector.Vector
}

// TailExchange threads merge-tail sharing through one slide of Apply.
// Exactly one of Fetch/Publish is set per slide:
//
//   - Fetch (follower): called once before the slide's merge. A non-nil
//     head is adopted — the concatenations and the grouped re-group are
//     skipped and the head's columns are installed directly, so the slide
//     pays only its residual tail. A nil head or error falls back to the
//     private merge (results identical either way).
//   - Publish (leader): called exactly once per slide with the captured
//     head, or nil when the slide did not merge (window still filling) or
//     the block's outputs were not capturable. The engine maps a nil head
//     to an abort for waiting followers.
//
// With neither set, nothing can adopt this slide's head (the engine
// leaves a solo leader's Publish nil), so a delta block may emit it into
// the runtime's reusable scratch.
//
// State is the tail's delta state for this slide's phase, and Prev and End
// are the absolute ends of the previous and of this window: a runtime that
// merges the window itself (the leader, or a follower whose leader aborted)
// brings State from Prev to End; one that adopts a head never touches it.
// A nil State merges through the runtime's own state.
//
// The engine guarantees deadlock freedom by acquiring leadership per
// absolute window end and processing slides in ascending end order: a
// leader waiting in Fetch can only wait on strictly smaller ends.
type TailExchange struct {
	Fetch     func() (*MergeHead, error)
	Publish   func(*MergeHead, error)
	State     *TailState
	Prev, End int64
}

// TailState is the delta state of one merge tail: the per-key totals of
// its delta-maintained grouped merge blocks (algebra.Delta), each tagged
// with the absolute window end it reflects. Every runtime of a tail reads
// bit-identical slot rings, so whichever of them merges a window brings
// the totals there — one expire and one add from the previous end, a
// rebuild from its own ring from anywhere else — and the others adopt the
// head. A runtime without a shared one owns a TailState tagged by its
// slide count. The zero value is ready to use; storage is allocated on the
// first merge. Safe for concurrent use: the runtime holds mu while it
// advances and emits, and waits on nothing while holding it.
type TailState struct {
	mu                      sync.Mutex
	blocks                  []tailBlock // indexed like Runtime.deltas
	adds, expires, rebuilds int
}

// tailBlock is one delta block's totals and the window end they reflect.
type tailBlock struct {
	d      *algebra.Delta
	tag    int64
	tagged bool
}

// Stats reports the state's footprint and its cumulative step counts;
// Blocks is the number of blocks holding totals.
func (ts *TailState) Stats() DeltaState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st := DeltaState{Adds: ts.adds, Expires: ts.expires, Rebuilds: ts.rebuilds}
	for _, tb := range ts.blocks {
		if tb.d == nil {
			continue
		}
		st.Blocks++
		st.Filters += tb.d.Filters()
		st.Visited += tb.d.Visited()
		st.Groups += tb.d.Groups()
		st.Rows += tb.d.Rows()
		st.TableCap += tb.d.TableCap()
		st.ArenaCap += tb.d.ArenaCap()
	}
	return st
}

// Options tune runtime execution. They never change plan semantics:
// results are bit-identical at every setting.
type Options struct {
	// Parallelism bounds the worker goroutines used to evaluate independent
	// plan fragments concurrently — the per-basic-window fragments of the
	// slides handed to one EvalFragments (and of multiple stream sources
	// within one slide) and the new join-matrix cells of a slide. <= 1
	// executes sequentially on the calling goroutine. Slot order, merge
	// order and therefore results are identical at any value: workers write
	// into indexed slots and the transition + merge stages stay
	// single-threaded.
	Parallelism int
	// Baseline evaluates as the seed did: grouped compensation blocks run
	// through the plain instruction path (one throwaway map-based grouping
	// per firing) instead of the grouped-merge kernel, and join-matrix
	// cells evaluate in written order with the right side building a fresh
	// hash table per cell instead of being planned greedily or replaced by
	// the join index. Results are identical; it exists because tests and
	// internal/bench use that path as the reference.
	Baseline bool
}

// SlotFile stores the retained datums of one basic window (or one matrix
// cell), indexed by slot position. It is the unit of sharing between
// queries: a file holds only owned, immutable vectors (runPerBW
// materializes views and clones raw binds), so one file produced by
// EvalFragments can be read concurrently by every subscriber's merge.
type SlotFile []exec.Datum

// regFile is the runtime-internal name for a slot file.
type regFile = SlotFile

// workerEnv is one worker's private execution state: a register file for
// fragment evaluation and an input scratch slice (the per-source exec
// inputs with the worker's basic-window view patched in). Pooling both
// keeps steady-state stepping allocation-flat and lets fragment evaluation
// fan out without sharing mutable state.
type workerEnv struct {
	env    []exec.Datum
	inputs []exec.Input
}

// Runtime executes an IncPlan across window slides, maintaining the
// per-basic-window intermediate slots and the join matrix.
type Runtime struct {
	ip   *IncPlan
	opts Options

	slotPos []map[plan.Reg]int // per source: reg -> slot index
	cellPos map[plan.Reg]int

	slots   [][]regFile // per source: ring of per-bw files (len <= N)
	pending [][]regFile // per source: chunk partials awaiting combination
	cells   [][]regFile // join matrix aligned with slots of the two sources

	staticEnv  []exec.Datum
	staticOuts []plan.Reg

	// par is the bounded fragment-worker count; envs[i] is worker i's
	// private environment (envs[0] doubles as the sequential scratch).
	par  int
	envs []*workerEnv

	// srcIdx lists the windowed stream sources in source order; per-bw
	// fragments exist only for these.
	srcIdx []int

	// lazyConcat binds multi-part concatenations as views: a scalar
	// aggregate reads the slot partials in place, and an instruction that
	// needs a dense column materializes it once (exec caches it in the
	// register).
	lazyConcat bool

	// deltas are the delta-maintained grouped merge blocks (MergeDelta), in
	// plan order; deltaAt indexes them by their start instruction. Their
	// totals live in a TailState: the slide's shared one, else own
	// (allocated on the first merge that needs it).
	deltas  []*deltaBlock
	deltaAt map[int]*deltaBlock
	own     *TailState
	// evicted holds, per source, the slot file the current slide rotated
	// out of the ring, until its merge has expired it from the totals.
	evicted []regFile
	// deltaCat maps a concatenation's destination to the delta block that
	// is its only reader; merge skips those concatenations (the block emits
	// from its own state).
	deltaCat map[plan.Reg]*deltaBlock

	// panes are the pane-backed scalar aggregates over the join matrix
	// (panes.go); paneHead is the ring position of the pane the next
	// eviction clears. paneCat maps each one's concatenation destination to
	// it: merge skips the concatenation and emits the fold of the panes.
	panes    []*paneAgg
	paneHead int
	paneCat  map[plan.Reg]*paneAgg
	// index replaces the join matrix's cells when the plan qualifies
	// (IncPlan.JoinIndex, joinindex.go): no cell is stored, no build table
	// interned, and planJoin never runs.
	index *joinIndex

	// mergeEnv is the reusable merge-stage register file; its entries are
	// cleared after every firing so it never pins a slide's vectors.
	mergeEnv []exec.Datum

	// Reusable task scratch of the serial apply stage.
	taskErrs  []error
	cellIdx   [][2]int
	cellFiles []regFile

	// Adaptive join planning state (planJoin). joinAdaptive gates the
	// greedy path; joinLPos/joinRPos are the slot positions of the join's
	// key registers; joinTables are the interned per-basic-window build
	// tables, rings aligned with slots[CellSources[0]] / [1] (an entry is
	// nil until some cell chose to build that side; eviction drops ring
	// heads in lockstep with the slots, releasing the table). emptyCellOK
	// marks plans whose cell stage degenerates to a constant file when the
	// join is empty, letting emptyFile zero whole rows/columns of cells
	// without evaluating them.
	joinAdaptive bool
	joinLPos     int
	joinRPos     int
	joinTables   [2][]algebra.JoinTable
	joinPlans    []joinDecision
	emptyCellOK  bool
	emptyFile    regFile

	steps int
}

// joinDecision is the planner's verdict for one new matrix cell, aligned
// with the cellIdx scratch.
type joinDecision uint8

const (
	// joinWritten evaluates the cell program as written (baseline).
	joinWritten joinDecision = iota
	// joinEmpty: one side has no post-filter rows — the join is empty.
	joinEmpty
	// joinBuildRight uses the right bw's interned table, probing left rows.
	joinBuildRight
	// joinBuildLeft uses the left bw's interned table, probing right rows
	// through the order-restoring flipped probe.
	joinBuildLeft
)

// NewRuntime prepares a sequential executor for an incremental plan.
func NewRuntime(ip *IncPlan) *Runtime { return NewRuntimeOpts(ip, Options{}) }

// NewRuntimeOpts prepares an executor with explicit runtime options.
func NewRuntimeOpts(ip *IncPlan, opts Options) *Runtime {
	rt := &Runtime{
		ip:      ip,
		opts:    opts,
		slots:   make([][]regFile, len(ip.Prog.Sources)),
		pending: make([][]regFile, len(ip.Prog.Sources)),
		slotPos: make([]map[plan.Reg]int, len(ip.Prog.Sources)),
		cellPos: map[plan.Reg]int{},
	}
	for s := range ip.Prog.Sources {
		rt.slotPos[s] = make(map[plan.Reg]int, len(ip.SlotRegs[s]))
		for i, r := range ip.SlotRegs[s] {
			rt.slotPos[s][r] = i
		}
	}
	for i, r := range ip.CellRegs {
		rt.cellPos[r] = i
	}
	for _, in := range ip.Static {
		rt.staticOuts = append(rt.staticOuts, in.Out...)
	}
	for s := range ip.Prog.Sources {
		if rt.windowedStream(s) {
			rt.srcIdx = append(rt.srcIdx, s)
		}
	}
	rt.staticEnv = make([]exec.Datum, ip.NumRegs)
	rt.mergeEnv = make([]exec.Datum, ip.NumRegs)
	rt.par = opts.Parallelism
	if rt.par < 1 {
		rt.par = 1
	}
	if len(ip.GroupMerges) > 0 && !opts.Baseline {
		rt.initDeltas()
		// Landmark plans compact merge outputs back into slots, which must
		// hold dense vectors; everything else can feed the merge stage
		// multi-part views (vec() materializes lazily where needed).
		rt.lazyConcat = !ip.Landmark
	}
	rt.envs = make([]*workerEnv, rt.par)
	for i := range rt.envs {
		rt.envs[i] = &workerEnv{
			env:    make([]exec.Datum, ip.NumRegs),
			inputs: make([]exec.Input, len(ip.Prog.Sources)),
		}
	}
	rt.initPanes()
	if rt.initIndex(); rt.index == nil {
		rt.initJoinPlanner(opts)
	}
	return rt
}

// initJoinPlanner enables greedy adaptive join planning when the plan has a
// stream-stream join matrix and nothing rules the fast path out. Landmark
// plans are excluded: compactLandmark rewrites slot files in place each
// firing, which would invalidate interned build tables.
func (rt *Runtime) initJoinPlanner(opts Options) {
	ip := rt.ip
	if ip.Join == nil || ip.Landmark || opts.Baseline {
		return
	}
	ls, rs := ip.CellSources[0], ip.CellSources[1]
	lp, lok := rt.slotPos[ls][ip.Join.LeftIn]
	rp, rok := rt.slotPos[rs][ip.Join.RightIn]
	if !lok || !rok {
		return
	}
	rt.joinAdaptive = true
	rt.joinLPos, rt.joinRPos = lp, rp
	rt.emptyCellOK = rt.emptyCellConstant()
}

// emptyCellConstant reports whether the cell stage produces the same slot
// file for every cell whose join result is empty, so one cached file can
// zero entire rows/columns of the matrix without evaluation. It proves
// this by constant propagation from the join's (empty) output selections:
// an instruction's output is empty-constant when all its inputs are, or
// when it is an OpTake of a schema-typed column through an empty-constant
// selection (an empty take yields the typed empty column no matter which
// basic-window pair the cell covers). Every cell instruction must be
// empty-constant — then in particular every retained CellReg is.
func (rt *Runtime) emptyCellConstant() bool {
	constant := map[plan.Reg]bool{rt.ip.Join.OutL: true, rt.ip.Join.OutR: true}
	for at, in := range rt.ip.Cell {
		if at == rt.ip.Join.At {
			continue
		}
		if at < rt.ip.Join.At {
			// Cell work scheduled before the join: out of scope.
			return false
		}
		all := len(in.In) > 0
		for _, r := range in.In {
			if !constant[r] {
				all = false
			}
		}
		switch {
		case all:
		case in.Op == plan.OpTake && len(in.In) == 2 && constant[in.In[1]]:
			// take(column, empty) is the typed empty column; the column's
			// type is fixed by the plan regardless of the cell's bw pair.
		default:
			return false
		}
		for _, r := range in.Out {
			constant[r] = true
		}
	}
	return true
}

// Steps returns the number of window slides processed so far.
func (rt *Runtime) Steps() int { return rt.steps }

// AdaptiveJoin reports whether greedy adaptive join planning is active.
func (rt *Runtime) AdaptiveJoin() bool { return rt.joinAdaptive }

// JoinIndexed reports whether the join matrix runs through the join index
// (IncPlan.JoinIndex).
func (rt *Runtime) JoinIndexed() bool { return rt.index != nil }

// Parallelism returns the configured fragment-worker bound (>= 1).
func (rt *Runtime) Parallelism() int { return rt.par }

// windowedStream reports whether source s expects basic-window pushes.
func (rt *Runtime) windowedStream(s int) bool {
	spec := rt.ip.Prog.Sources[s]
	return spec.IsStream && spec.Window != nil
}

// forEach runs fn for every task in [0, n): sequentially on envs[0] when
// parallelism is off or there is only one task, otherwise across
// min(par, n) workers (exec.ForEachWorker), each with its own
// environment. Every task runs exactly once and writes only into indexed
// slots, so execution order cannot leak into results; the lowest-index
// error is returned to match sequential error behavior.
func (rt *Runtime) forEach(n int, fn func(task int, w *workerEnv) error) error {
	if cap(rt.taskErrs) < n {
		rt.taskErrs = make([]error, n)
	}
	return exec.ForEachWorker(n, rt.par, rt.taskErrs[:cap(rt.taskErrs)], func(task, worker int) error {
		return fn(task, rt.envs[worker])
	})
}

// PushChunk processes a fraction of the next basic window of source s
// early (the paper's "Optimized Incremental Plans"): the per-bw fragment
// runs on the chunk now, and its partial intermediates are combined into
// the basic window's slot when Apply later completes the window.
func (rt *Runtime) PushChunk(s int, view []vector.View, inputs []exec.Input) error {
	if rt.ip.HasJoin {
		return fmt.Errorf("core: chunked processing is limited to single-stream plans")
	}
	rt.runStatic(inputs)
	file, err := rt.runPerBW(s, view, inputs, rt.envs[0])
	if err != nil {
		return err
	}
	rt.pending[s] = append(rt.pending[s], file)
	return nil
}

// Step processes one window slide: EvalFragments then Apply for a single
// slide. newBW[s] holds the new basic window of windowed stream source s
// as per-column views. The returned table is nil while the first window is
// still filling.
func (rt *Runtime) Step(newBW [][]vector.View, inputs []exec.Input) (*exec.Table, StepStats, error) {
	files, ns, err := rt.EvalFragments([][][]vector.View{newBW}, inputs)
	if err != nil {
		return nil, StepStats{}, err
	}
	res, err := rt.Apply(files, []int64{ns}, inputs, nil)
	if err != nil {
		return nil, StepStats{}, err
	}
	return res[0].Table, res[0].Stats, nil
}

// EvalFragments evaluates the per-bw fragment of every (slide, windowed
// source) pair across the worker pool and returns the slot files without
// touching any runtime state (slots, pending, matrix, step count): the
// produced files are pure functions of the slide views and the static
// stage. slides[i][s] holds slide i's basic window of source s as
// per-column views — possibly multi-part when it spans basket segment
// boundaries; entries for tables are ignored, inputs supplies their full
// columns. files[i] lists slide i's slot files in windowed-source order,
// ready for Apply on this runtime or — single-stream plans, via the
// engine's fragment catalog — on any structurally identical one. The
// second result is the wall-clock nanoseconds spent evaluating.
func (rt *Runtime) EvalFragments(slides [][][]vector.View, inputs []exec.Input) ([][]SlotFile, int64, error) {
	t0 := time.Now()
	rt.runStatic(inputs)
	// Task t covers slide t/nsrc and windowed source srcIdx[t%nsrc]; results
	// land in indexed slots so Apply observes exactly the sequential order.
	nsrc := len(rt.srcIdx)
	flat := make([]SlotFile, len(slides)*nsrc)
	err := rt.forEach(len(flat), func(t int, w *workerEnv) error {
		s := rt.srcIdx[t%nsrc]
		f, err := rt.runPerBW(s, slides[t/nsrc][s], inputs, w)
		flat[t] = f
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	files := make([][]SlotFile, len(slides))
	for i := range files {
		files[i] = flat[i*nsrc : (i+1)*nsrc]
	}
	return files, time.Since(t0).Nanoseconds(), nil
}

// Apply advances the runtime by k consecutive slides whose per-bw fragment
// outputs are already evaluated — by this runtime's EvalFragments or
// adopted from another query's. files[i] holds slide i's slot files in
// windowed-source order, fragNS[i] the fragment cost to attribute to its
// MainNS (zero for adopted files), tails[i] its optional merge-tail
// exchange (tails may be nil, or hold nil entries for slides that merge
// privately). Per slide it performs the serial tail of a step — chunk
// combination, slot rotation, join-matrix update (its new cells fan out
// across the worker pool), merge — so results are bit-identical at any
// parallelism and batch size. Slides are processed in order; the engine
// relies on that to keep the tail exchange deadlock-free (ascending window
// ends).
func (rt *Runtime) Apply(files [][]SlotFile, fragNS []int64, inputs []exec.Input, tails []*TailExchange) ([]StepResult, error) {
	rt.runStatic(inputs)
	out := make([]StepResult, len(files))
	for sl := range files {
		rt.steps++ // tags the runtime's own delta state
		var tx *TailExchange
		if sl < len(tails) {
			tx = tails[sl]
		}
		out[sl].Stats.MainNS = fragNS[sl]
		tbl, err := rt.applyOne(files[sl], inputs, tx, &out[sl].Stats)
		if err != nil {
			return nil, err
		}
		out[sl].Table = tbl
	}
	return out, nil
}

// applyOne is one slide of Apply; it adds its stage times to stats.
func (rt *Runtime) applyOne(newFiles []SlotFile, inputs []exec.Input, tx *TailExchange, stats *StepStats) (*exec.Table, error) {
	t1 := time.Now()
	var stateNS int64 // merge-state upkeep: delta blocks and matrix panes
	evicted := false
	for j, s := range rt.srcIdx {
		file := newFiles[j]
		if len(rt.pending[s]) > 0 {
			chunks := append(rt.pending[s], file)
			file = rt.combineChunks(s, chunks)
			rt.pending[s] = nil
		}
		if !rt.ip.Landmark && len(rt.slots[s]) == rt.ip.N {
			// Transition phase: expire the oldest basic window. A delta
			// block's merge still has to subtract it.
			if rt.deltas != nil {
				rt.evicted[s] = rt.slots[s][0]
			}
			rt.slots[s] = rt.slots[s][1:]
			evicted = true
		}
		rt.slots[s] = append(rt.slots[s], file)
		if rt.deltas != nil {
			td := time.Now()
			rt.admitDeltas(s, file)
			stateNS += time.Since(td).Nanoseconds()
		}
	}
	defer clear(rt.evicted) // don't pin expired slot files past the merge
	if rt.ip.HasJoin {
		tj := time.Now()
		paneNS, err := rt.updateCells(evicted, inputs, stats)
		if err != nil {
			return nil, err
		}
		stats.JoinNS = time.Since(tj).Nanoseconds() - paneNS
		stateNS += paneNS
	}
	// Maintaining merge state is merge work, not fragment or join work.
	stats.MainNS += time.Since(t1).Nanoseconds() - stateNS
	stats.MergeNS += stateNS

	if !rt.ready() {
		if tx != nil && tx.Publish != nil {
			// The window is still filling: nothing merged, nothing to adopt.
			tx.Publish(nil, nil)
		}
		return nil, nil
	}
	t2 := time.Now()
	tbl, env, err := rt.merge(inputs, tx)
	if err != nil {
		return nil, err
	}
	if rt.ip.Landmark {
		rt.compactLandmark(env)
	}
	// env is the reusable merge register file: clear it so it does not pin
	// the slide's concatenations and result columns past this firing.
	clear(env)
	stats.MergeNS += time.Since(t2).Nanoseconds()
	stats.Emitted = true
	stats.ResultRows = tbl.NumRows()
	return tbl, nil
}

func (rt *Runtime) ready() bool {
	for s := range rt.ip.Prog.Sources {
		if !rt.windowedStream(s) {
			continue
		}
		if rt.ip.Landmark {
			if len(rt.slots[s]) < 1 {
				return false
			}
			continue
		}
		if len(rt.slots[s]) < rt.ip.N {
			return false
		}
	}
	return true
}

func (rt *Runtime) runStatic(inputs []exec.Input) {
	for _, in := range rt.ip.Static {
		if err := exec.ExecInstr(in, rt.staticEnv, inputs); err != nil {
			// Static instructions only fail on schema mismatches, which
			// Compile already validated; surface loudly.
			panic(fmt.Sprintf("core: static stage: %v", err))
		}
	}
}

func (rt *Runtime) copyStatic(env []exec.Datum) {
	for _, r := range rt.staticOuts {
		env[r] = rt.staticEnv[r]
	}
}

// runPerBW executes source s's per-basic-window fragment over the given
// column views inside worker environment w and returns the slot file of
// retained values. The views are bound as-is — part-aware operators
// (select, take, scalar aggregates) iterate boundary-spanning views part
// by part, and only operators without a part-aware path flatten a column
// (lazily, at most once). Safe to call concurrently from distinct worker
// environments: it reads only immutable plan/segment state and writes only
// w and its returned file.
func (rt *Runtime) runPerBW(s int, view []vector.View, inputs []exec.Input, w *workerEnv) (regFile, error) {
	env := w.env
	rt.copyStatic(env)
	if cap(w.inputs) < len(inputs) {
		w.inputs = make([]exec.Input, len(inputs))
	}
	bwInputs := w.inputs[:len(inputs)]
	copy(bwInputs, inputs)
	bwInputs[s] = exec.Input{Views: view}
	for _, in := range rt.ip.PerBW[s] {
		if err := exec.ExecInstr(in, env, bwInputs); err != nil {
			return nil, fmt.Errorf("core: per-bw stage (source %d): %w", s, err)
		}
	}
	file := make(regFile, len(rt.ip.SlotRegs[s]))
	for i, r := range rt.ip.SlotRegs[s] {
		d := env[r]
		switch {
		case d.Kind == exec.KindView:
			// A bound column consumed only through part-aware operators:
			// the slot must survive segment reclamation, so materialize a
			// private contiguous copy now.
			d = exec.VecDatum(d.View.Materialize())
		case rt.ip.BindRegs[r] && d.Kind == exec.KindVec:
			// Slot values must survive basket deletions: clone raw views.
			d = exec.VecDatum(d.Vec.Clone())
		}
		file[i] = d
	}
	return file, nil
}

// combineChunks merges chunked per-bw partials into one slot file by
// concatenating each retained vector (partials stay partials; the merge
// stage re-aggregates, so concatenation is always the correct combiner).
func (rt *Runtime) combineChunks(s int, chunks []regFile) regFile {
	out := make(regFile, len(rt.ip.SlotRegs[s]))
	for i := range rt.ip.SlotRegs[s] {
		vs := make([]*vector.Vector, 0, len(chunks))
		for _, c := range chunks {
			if c[i].Kind != exec.KindVec {
				panic("core: non-vector datum in chunk slot")
			}
			vs = append(vs, c[i].Vec)
		}
		out[i] = exec.VecDatum(vector.Concat(vs...))
	}
	return out
}

// updateCells maintains the join matrix: expire the row and column of the
// evicted basic windows, then evaluate the cells involving the new ones.
// The new cells of one slide are independent of each other (each reads
// only the immutable slot files), so they fan out across the worker pool;
// assignment back into the matrix is serial and index-ordered. On the
// adaptive path planJoin first decides each new cell's fate — zeroed,
// probe an interned left table, probe an interned right table — from the
// exact post-filter cardinalities of the slide. The matrix panes expire
// and fold in lockstep with the cells — expiry with the eviction, folding
// with the serial assignment, which runs only once every new cell has
// succeeded — so a slide that fails leaves panes and matrix consistent.
// paneNS is the time spent on the panes, which is merge work. A plan on
// the join index (updateIndex) keeps no cells at all.
func (rt *Runtime) updateCells(evicted bool, inputs []exec.Input, stats *StepStats) (paneNS int64, err error) {
	if rt.index != nil {
		return rt.updateIndex(evicted, stats)
	}
	ls, rs := rt.ip.CellSources[0], rt.ip.CellSources[1]
	if evicted && len(rt.cells) > 0 {
		rt.cells = rt.cells[1:]
		for i := range rt.cells {
			rt.cells[i] = rt.cells[i][1:]
		}
		if rt.panes != nil {
			tp := time.Now()
			rt.expirePanes()
			paneNS += time.Since(tp).Nanoseconds()
		}
	}
	if evicted && rt.joinAdaptive {
		// Expire the evicted basic windows' interned build tables in
		// lockstep with their slots (nil the head first so the sliced ring
		// does not pin the table's memory).
		for k := range rt.joinTables {
			if len(rt.joinTables[k]) > 0 {
				rt.joinTables[k][0] = nil
				rt.joinTables[k] = rt.joinTables[k][1:]
			}
		}
	}
	L, R := len(rt.slots[ls]), len(rt.slots[rs])
	for len(rt.cells) < L {
		rt.cells = append(rt.cells, nil)
	}
	rt.cellIdx = rt.cellIdx[:0]
	for i := 0; i < L; i++ {
		for len(rt.cells[i]) < R {
			rt.cells[i] = append(rt.cells[i], nil)
		}
		for j := 0; j < R; j++ {
			if rt.cells[i][j] == nil {
				rt.cellIdx = append(rt.cellIdx, [2]int{i, j})
			}
		}
	}
	coords := rt.cellIdx
	if rt.joinAdaptive {
		if err := rt.planJoin(coords, stats); err != nil {
			return 0, err
		}
	}
	if cap(rt.cellFiles) < len(coords) {
		rt.cellFiles = make([]regFile, len(coords))
	}
	cfiles := rt.cellFiles[:len(coords)]
	err = rt.forEach(len(coords), func(t int, w *workerEnv) error {
		d := joinWritten
		if rt.joinAdaptive {
			d = rt.joinPlans[t]
			if d == joinEmpty && rt.emptyFile != nil {
				cfiles[t] = rt.emptyFile
				return nil
			}
		}
		f, err := rt.runCell(coords[t][0], coords[t][1], d, inputs, w)
		cfiles[t] = f
		return err
	})
	if err != nil {
		return 0, err
	}
	for t, c := range coords {
		rt.cells[c[0]][c[1]] = cfiles[t]
		if rt.emptyCellOK && rt.emptyFile == nil && rt.joinAdaptive && rt.joinPlans[t] == joinEmpty {
			// Cache the first evaluated empty-join cell file: every later
			// empty cell of this plan is this exact file (emptyCellConstant
			// proved the cell stage constant on empty joins), so zeroed
			// rows/columns assign it without any evaluation.
			rt.emptyFile = cfiles[t]
		}
		cfiles[t] = nil
	}
	if rt.panes != nil {
		tp := time.Now()
		for _, c := range coords {
			rt.foldPanes(min(c[0], c[1]), rt.cells[c[0]][c[1]])
		}
		paneNS += time.Since(tp).Nanoseconds()
	}
	return paneNS, nil
}

// joinKeyRows returns the post-filter cardinality of side k's basic window
// at ring position p — the length of the retained join-key column.
func (rt *Runtime) joinKeyRows(k, p int) int {
	if k == 0 {
		return rt.slots[rt.ip.CellSources[0]][p][rt.joinLPos].Rows()
	}
	return rt.slots[rt.ip.CellSources[1]][p][rt.joinRPos].Rows()
}

// planJoin decides each new cell's evaluation greedily from the exact
// post-filter cardinalities of the slide's live basic windows — the
// statistics-free planning the paper's setting makes possible: at fire
// time, every fragment size is known, not estimated.
//
// Cost model per probing cell: a probe costs rows(probe side); a missing
// build table costs ~2x rows(build side) amortized over the new cells that
// would share it this slide (every later slide reuses it for free, so this
// is an upper bound on its marginal cost). The greedy rule therefore
// converges on interning the large side's table once and sweeping the
// small side across it — in a 1000x-skewed matrix the per-cell cost drops
// from O(large) to O(small). Ties build right, matching the written order.
// Cells with an empty side are zeroed without evaluation.
func (rt *Runtime) planJoin(coords [][2]int, stats *StepStats) error {
	if cap(rt.joinPlans) < len(coords) {
		rt.joinPlans = make([]joinDecision, len(coords))
	}
	rt.joinPlans = rt.joinPlans[:len(coords)]
	ls, rs := rt.ip.CellSources[0], rt.ip.CellSources[1]
	L, R := len(rt.slots[ls]), len(rt.slots[rs])
	// Count the new cells per row/column: the amortization denominators.
	rowNew := make([]int32, L)
	colNew := make([]int32, R)
	for _, c := range coords {
		rowNew[c[0]]++
		colNew[c[1]]++
	}
	for k, n := range [2]int{L, R} {
		for len(rt.joinTables[k]) < n {
			rt.joinTables[k] = append(rt.joinTables[k], nil)
		}
	}
	var needL, needR []int // ring positions whose table must be built now
	probes := 0
	for t, c := range coords {
		i, j := c[0], c[1]
		lrows, rrows := rt.joinKeyRows(0, i), rt.joinKeyRows(1, j)
		if lrows == 0 || rrows == 0 {
			rt.joinPlans[t] = joinEmpty
			continue
		}
		probes++
		costRight := float64(lrows)
		if rt.joinTables[1][j] == nil {
			costRight += 2 * float64(rrows) / float64(colNew[j])
		}
		costLeft := float64(rrows)
		if rt.joinTables[0][i] == nil {
			costLeft += 2 * float64(lrows) / float64(rowNew[i])
		}
		if costLeft < costRight {
			rt.joinPlans[t] = joinBuildLeft
			if rt.joinTables[0][i] == nil {
				rt.joinTables[0][i] = pendingJoinTable
				needL = append(needL, i)
			}
		} else {
			rt.joinPlans[t] = joinBuildRight
			if rt.joinTables[1][j] == nil {
				rt.joinTables[1][j] = pendingJoinTable
				needR = append(needR, j)
			}
		}
	}
	// Build the missing tables (typically 0-2 per slide in steady state;
	// every other probing cell reuses an interned one).
	builds := len(needL) + len(needR)
	err := rt.forEach(builds, func(t int, w *workerEnv) error {
		side, pos := 0, 0
		if t < len(needL) {
			pos = needL[t]
		} else {
			side, pos = 1, needR[t-len(needL)]
		}
		v, err := rt.joinKeyVec(side, pos)
		if err != nil {
			return err
		}
		rt.joinTables[side][pos] = algebra.BuildTable(v, nil)
		return nil
	})
	if err != nil {
		return err
	}
	stats.BuildsReused += int64(probes - builds)
	return nil
}

// pendingJoinTable marks a ring entry claimed by planJoin before its build
// runs; it is never probed.
var pendingJoinTable = algebra.JoinTable((*algebra.IntTable)(nil))

// joinKeyVec returns side k's retained join-key column at ring position p
// as a dense vector.
func (rt *Runtime) joinKeyVec(k, p int) (*vector.Vector, error) {
	var d exec.Datum
	if k == 0 {
		d = rt.slots[rt.ip.CellSources[0]][p][rt.joinLPos]
	} else {
		d = rt.slots[rt.ip.CellSources[1]][p][rt.joinRPos]
	}
	switch d.Kind {
	case exec.KindVec:
		return d.Vec, nil
	case exec.KindView:
		return d.View.Materialize(), nil
	}
	return nil, fmt.Errorf("core: join key slot holds non-vector datum (kind %d)", d.Kind)
}

func (rt *Runtime) runCell(i, j int, decision joinDecision, inputs []exec.Input, w *workerEnv) (regFile, error) {
	ls, rs := rt.ip.CellSources[0], rt.ip.CellSources[1]
	env := w.env
	rt.copyStatic(env)
	for pos, r := range rt.ip.SlotRegs[ls] {
		env[r] = rt.slots[ls][i][pos]
	}
	for pos, r := range rt.ip.SlotRegs[rs] {
		env[r] = rt.slots[rs][j][pos]
	}
	for at, in := range rt.ip.Cell {
		if decision != joinWritten && at == rt.ip.Join.At {
			if err := rt.execPlannedJoin(i, j, decision, env); err != nil {
				return nil, err
			}
			continue
		}
		if err := exec.ExecInstr(in, env, inputs); err != nil {
			return nil, fmt.Errorf("core: cell (%d,%d): %w", i, j, err)
		}
	}
	file := make(regFile, len(rt.ip.CellRegs))
	for pos, r := range rt.ip.CellRegs {
		file[pos] = env[r]
	}
	return file, nil
}

// execPlannedJoin evaluates the matrix's join instruction for cell (i,j)
// as planned: empty result, or a probe of the interned build table in the
// chosen orientation. Both orientations emit pairs in canonical left-row
// order, so the result is bit-identical to the written-order evaluation.
func (rt *Runtime) execPlannedJoin(i, j int, decision joinDecision, env []exec.Datum) error {
	var res algebra.JoinResult
	switch decision {
	case joinEmpty:
		res = algebra.JoinResult{Left: vector.Sel{}, Right: vector.Sel{}}
	case joinBuildRight:
		v, err := rt.joinKeyVec(0, i)
		if err != nil {
			return err
		}
		res = rt.joinTables[1][j].Probe(v, nil)
	case joinBuildLeft:
		v, err := rt.joinKeyVec(1, j)
		if err != nil {
			return err
		}
		res = rt.joinTables[0][i].ProbeFlipped(v, nil)
	}
	env[rt.ip.Join.OutL] = exec.SelDatum(res.Left)
	env[rt.ip.Join.OutR] = exec.SelDatum(res.Right)
	return nil
}

// merge binds the concatenations, runs the merge fragment and returns the
// window result plus the merge environment (used for landmark compaction).
// A delta-maintained grouped block emits from its state (mergeDelta)
// instead of running its instructions; every other block runs as written.
// Results are bit-identical either way. Multi-part concatenations bind as
// views when the plan allows it, so a fresh concatenation is only
// materialized for consumers that need one (vec() caches it in the
// register on first use). A scalar aggregate over the join matrix that has
// panes neither gathers nor concatenates its cells: its register is the
// fold of the live panes (panes.go).
func (rt *Runtime) merge(inputs []exec.Input, tx *TailExchange) (*exec.Table, []exec.Datum, error) {
	env := rt.mergeEnv
	clear(env) // stale entries from an errored firing must not leak in
	rt.copyStatic(env)

	// Merge-tail exchange: tailSpec is the single shareable grouped block
	// (the engine only passes tx for plans whose MergeTailKey is non-empty,
	// which requires exactly one block). A follower fetches the leader's
	// head before any concat work; a leader captures and publishes its
	// block outputs the moment the block completes.
	var tailSpec *GroupMergeSpec
	var adopt *MergeHead
	published := false
	if tx != nil && len(rt.ip.GroupMerges) == 1 {
		tailSpec = &rt.ip.GroupMerges[0]
		if tx.Fetch != nil {
			if h, err := tx.Fetch(); err == nil && h != nil &&
				len(h.Keys) == len(tailSpec.KeyOuts) && len(h.Aggs) == len(tailSpec.Aggs) {
				adopt = h
			}
		}
	}
	publishHead := func() {
		if tailSpec == nil || tx == nil || tx.Publish == nil || published {
			return
		}
		published = true
		head := &MergeHead{
			Keys: make([]*vector.Vector, len(tailSpec.KeyOuts)),
			Aggs: make([]*vector.Vector, len(tailSpec.Aggs)),
		}
		for i, r := range tailSpec.KeyOuts {
			if env[r].Kind != exec.KindVec {
				tx.Publish(nil, nil)
				return
			}
			head.Keys[i] = env[r].Vec
		}
		for i, ag := range tailSpec.Aggs {
			if env[ag.Out].Kind != exec.KindVec {
				tx.Publish(nil, nil)
				return
			}
			head.Aggs[i] = env[ag.Out].Vec
		}
		tx.Publish(head, nil)
	}

	if adopt == nil {
		for _, spec := range rt.ip.Concats {
			if b := rt.deltaCat[spec.Dst]; b != nil && !b.off {
				continue
			}
			if p := rt.paneCat[spec.Dst]; p != nil && !p.off {
				continue
			}
			vecs, err := rt.gather(spec)
			if err != nil {
				return nil, nil, err
			}
			if rt.lazyConcat && len(vecs) > 1 {
				view := vector.NewView(vecs[0].Type(), vecs...)
				env[spec.Dst] = exec.ViewDatum(view)
				continue
			}
			env[spec.Dst] = exec.VecDatum(vector.Concat(vecs...))
		}
	} else {
		// Adopted head: the concatenations only feed the grouped block
		// (MergeTailKey eligibility), so skip them and install the merged
		// outputs directly.
		for i, r := range tailSpec.KeyOuts {
			env[r] = exec.VecDatum(adopt.Keys[i])
		}
		for i, ag := range tailSpec.Aggs {
			env[ag.Out] = exec.VecDatum(adopt.Aggs[i])
		}
	}
	var result *exec.Table
	for idx := 0; idx < len(rt.ip.Merge); idx++ {
		if tailSpec != nil && idx == tailSpec.Start+tailSpec.Len {
			publishHead() // block complete (kernel or instruction path)
		}
		if adopt != nil && idx >= tailSpec.Start && idx < tailSpec.Start+tailSpec.Len {
			continue // the adopted head already filled the block's outputs
		}
		if b := rt.deltaAt[idx]; b != nil && !b.off {
			rt.mergeDelta(b, env, tx)
			idx += b.spec.Len - 1
			continue
		}
		in := rt.ip.Merge[idx]
		if in.Op == plan.OpAgg && len(in.In) == 1 {
			if p := rt.paneCat[in.In[0]]; p != nil && !p.off {
				env[in.Out[0]] = exec.VecDatum(p.emit())
				continue
			}
		}
		if in.Op == plan.OpResult {
			tbl, err := exec.BuildResult(in, env)
			if err != nil {
				return nil, nil, fmt.Errorf("core: merge result: %w", err)
			}
			result = tbl
			continue
		}
		var err error
		if in.Op == plan.OpGroup && rt.opts.Baseline {
			// Baseline re-groups on a fresh map, as the seed did: its
			// serial merge anchors the merge speedup gates.
			err = exec.ExecGroupMap(in, env)
		} else {
			err = exec.ExecInstr(in, env, inputs)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: merge stage: %w", err)
		}
	}
	publishHead() // block ends at the final instruction
	if result == nil {
		return nil, nil, fmt.Errorf("core: merge produced no result")
	}
	return result, env, nil
}

// mergeDelta runs delta-maintained grouped block b: it brings the
// block's totals to this window (deltaMerge) and binds the merged head to
// the block's outputs. The head goes to the block's scratch, holding only
// the groups the residual's filter keeps, when nothing can read it after
// this slide: the residual copies what it keeps (a select/take chain,
// checked statically) and no other query can adopt it (no tail, a
// follower merging privately, or a solo leader, whose Publish the engine
// leaves nil).
func (rt *Runtime) mergeDelta(b *deltaBlock, env []exec.Datum, tx *TailExchange) {
	var buf *algebra.EmitBuf
	if b.filter != nil && (tx == nil || tx.Publish == nil) {
		buf = &b.head
	}
	keyVec, aggVecs := rt.deltaMerge(b, tx, buf)
	env[b.spec.KeyOuts[0]] = exec.VecDatum(keyVec)
	for i, ag := range b.spec.Aggs {
		env[ag.Out] = exec.VecDatum(aggVecs[i])
	}
}

// Merge kernel names, as MergeKernel and Explain report them.
const (
	MergeDelta       = "delta"
	MergeInstruction = "instruction"
)

// MergeKernel names the kernel a runtime built with opts runs grouped
// merge block i through — the delta-maintained state, or the block's own
// instructions (the code Baseline runs) — and, unless it is delta, the
// first reason the block does not qualify. The choice follows from the
// plan's shape alone; Baseline is the only switch.
func (ip *IncPlan) MergeKernel(i int, opts Options) (kernel, reason string) {
	spec := &ip.GroupMerges[i]
	switch {
	case opts.Baseline:
		return MergeInstruction, "baseline"
	case ip.Landmark:
		return MergeInstruction, "landmark"
	case ip.HasJoin || spec.Source < 0:
		return MergeInstruction, "join-fed"
	case len(spec.KeyTypes) != 1 || !vector.IntKind(spec.KeyTypes[0]):
		return MergeInstruction, "generic key"
	}
	for _, ag := range spec.Aggs {
		extreme := ag.Kind == algebra.AggMin || ag.Kind == algebra.AggMax
		switch {
		case ag.Typ == vector.Float64 && extreme:
			// NaN and -0 make a float extreme depend on the fold order.
			return MergeInstruction, "float min/max"
		case ag.Typ == vector.Float64 && ag.Kind == algebra.AggSum:
			return MergeInstruction, "float sum" // order-sensitive
		case !vector.IntKind(ag.Typ) || (!extreme && ag.Kind != algebra.AggSum):
			return MergeInstruction, "unsupported aggregate"
		}
	}
	return MergeDelta, ""
}

// HeadFilter returns the residual's filter over grouped merge block i as
// conjuncts on the block's head, when every reader of the block's outputs
// belongs to one filter chain: an OpSelect of a current column against a
// constant, then OpTakes of current columns by that selection, which
// become the current columns of the next link. Whatever reads the last
// link's columns is unconstrained. That is what a HAVING conjunction
// lowers to. Selects and takes produce fresh data, so nothing downstream
// aliases the head, and the kernel's selects keep every row of a
// pre-filtered head: a delta block may emit only the groups the filter
// keeps into the runtime's reusable scratch whenever no other query can
// adopt the head. pred renders the conjunction for Explain; when the check
// refuses, conj is nil and why says what stands in the way.
func (ip *IncPlan) HeadFilter(i int) (conj []algebra.Conjunct, pred, why string) {
	spec := &ip.GroupMerges[i]
	if len(spec.KeyOuts) != 1 {
		return nil, "", "multi-column key"
	}
	cur := map[plan.Reg]int{spec.KeyOuts[0]: 0} // current link: register -> head column
	for a, ag := range spec.Aggs {
		cur[ag.Out] = 1 + a
	}
	var next map[plan.Reg]int
	sel := plan.Reg(-1)
	dead := map[plan.Reg]bool{} // spent links and their selections
	retire := func() {
		for r := range cur {
			dead[r] = true
		}
		dead[sel] = true
	}
	done := false
	const notChain = "the residual is not a select/take chain"
	for idx, in := range ip.Merge {
		if idx >= spec.Start && idx < spec.Start+spec.Len {
			continue
		}
		readsCur, readsNext := false, false
		for _, r := range in.In {
			if dead[r] {
				return nil, "", notChain
			}
			_, c := cur[r]
			_, n := next[r]
			readsCur = readsCur || c || r == sel
			readsNext = readsNext || n
		}
		switch {
		case done:
		case in.Op == plan.OpSelect && (readsCur && sel < 0 || readsNext && !readsCur):
			if readsNext { // the next link begins
				retire()
				cur = next
			}
			conj = append(conj, algebra.Conjunct{Col: cur[in.In[0]], Cmp: in.Cmp, Val: in.Val})
			sel, next = in.Out[0], map[plan.Reg]int{}
		case in.Op == plan.OpTake && in.In[1] == sel && !readsNext:
			c, ok := cur[in.In[0]]
			if !ok {
				return nil, "", notChain
			}
			next[in.Out[0]] = c
		case readsCur:
			return nil, "", notChain
		case readsNext:
			// The chain is complete: the last link's columns are the
			// filtered head, free for any reader.
			done = true
			retire()
		}
	}
	if len(conj) == 0 {
		return nil, "", "no HAVING filter"
	}
	last := cur
	if next != nil {
		last = next
	}
	names := make([]string, 1+len(spec.Aggs))
	names[0] = fmt.Sprintf("r%d", spec.KeyOuts[0])
	for a, ag := range spec.Aggs {
		names[1+a] = fmt.Sprintf("%s(r%d)", ag.Kind, ag.Cat)
	}
	for _, in := range ip.Merge {
		if in.Op == plan.OpResult {
			for j, r := range in.In {
				if c, ok := last[r]; ok && j < len(in.Names) {
					names[c] = in.Names[j]
				}
			}
		}
	}
	parts := make([]string, len(conj))
	for j, c := range conj {
		parts[j] = fmt.Sprintf("%s %s %s", names[c.Col], c.Cmp, c.Val)
	}
	return conj, strings.Join(parts, " AND "), ""
}

// MergeKernels names the kernel this runtime runs each grouped merge block
// of its plan through, in plan order.
func (rt *Runtime) MergeKernels() []string {
	out := make([]string, len(rt.ip.GroupMerges))
	for i := range out {
		out[i], _ = rt.ip.MergeKernel(i, rt.opts)
		if b := rt.deltaAt[rt.ip.GroupMerges[i].Start]; out[i] == MergeDelta && (b == nil || b.off) {
			out[i] = MergeInstruction // retired by a slot file of unexpected shape
		}
	}
	return out
}

// deltaBlock is the runtime's view of one delta-maintained grouped merge
// block: where its key and aggregate partials sit in the feeding source's
// slot files, and its index into a TailState's blocks. Slot files may be
// shared with other queries through the fragment catalog and are only ever
// read here — every per-row side array lives in the TailState's Delta.
type deltaBlock struct {
	spec    *GroupMergeSpec
	idx     int
	src     int
	keyPos  int
	aggPos  []int
	keyTyp  vector.Type
	aggTyp  []vector.Type
	aggKind []algebra.AggKind
	vals    [][]int64 // scratch: one slot file's aggregate columns
	// filter is the residual's HAVING filter on the block's head
	// (IncPlan.HeadFilter), nil when the residual is no select/take chain.
	// With one, head — the runtime's reusable key and aggregate columns —
	// may hold a head nobody adopts, and then holds only the kept groups.
	filter []algebra.Conjunct
	head   algebra.EmitBuf
	// off retires the block to its instructions for good: a slot file did
	// not have the statically derived shape.
	off bool
}

// initDeltas sets up the delta-maintained state of every grouped merge
// block that qualifies.
func (rt *Runtime) initDeltas() {
	ip := rt.ip
	catSrc := make(map[plan.Reg]plan.Reg, len(ip.Concats))
	for _, c := range ip.Concats {
		catSrc[c.Dst] = c.Src
	}
	for i := range ip.GroupMerges {
		if kernel, _ := ip.MergeKernel(i, rt.opts); kernel != MergeDelta {
			continue
		}
		spec := &ip.GroupMerges[i]
		b := &deltaBlock{spec: spec, src: spec.Source, keyTyp: spec.KeyTypes[0], vals: make([][]int64, len(spec.Aggs))}
		b.filter, _, _ = ip.HeadFilter(i)
		pos, ok := rt.slotPos[b.src][catSrc[spec.CatKeys[0]]]
		b.keyPos = pos
		for _, ag := range spec.Aggs {
			p, found := rt.slotPos[b.src][catSrc[ag.Cat]]
			ok = ok && found
			b.aggPos = append(b.aggPos, p)
			b.aggTyp = append(b.aggTyp, ag.Typ)
			b.aggKind = append(b.aggKind, ag.Kind)
		}
		if !ok {
			continue
		}
		if rt.deltaAt == nil {
			rt.deltaAt = map[int]*deltaBlock{}
			rt.deltaCat = map[plan.Reg]*deltaBlock{}
			rt.evicted = make([]regFile, len(ip.Prog.Sources))
		}
		b.idx = len(rt.deltas)
		rt.deltaAt[spec.Start] = b
		rt.deltas = append(rt.deltas, b)
		// The block's concatenations need not be bound unless a residual
		// instruction outside the block also reads them.
		rt.deltaCat[spec.CatKeys[0]] = b
		for _, ag := range spec.Aggs {
			rt.deltaCat[ag.Cat] = b
		}
		for idx, in := range ip.Merge {
			if idx >= spec.Start && idx < spec.Start+spec.Len {
				continue
			}
			for _, r := range in.In {
				delete(rt.deltaCat, r)
			}
		}
	}
}

// columns reads one slot file's key and aggregate partial columns (the
// latter into the block's scratch). ok is false when the file does not
// hold dense columns of the expected types and equal lengths.
func (b *deltaBlock) columns(file regFile) (keys []int64, vals [][]int64, ok bool) {
	kd := file[b.keyPos]
	if kd.Kind != exec.KindVec || kd.Vec.Type() != b.keyTyp {
		return nil, nil, false
	}
	keys = kd.Vec.Int64s()
	for a, p := range b.aggPos {
		d := file[p]
		if d.Kind != exec.KindVec || d.Vec.Type() != b.aggTyp[a] || d.Vec.Len() != len(keys) {
			return nil, nil, false
		}
		b.vals[a] = d.Vec.Int64s()
	}
	return keys, b.vals, true
}

// admitDeltas checks the slot file source s just pushed into its ring
// against every delta block it feeds, and retires a block for good when
// the file lacks the statically derived shape. It runs at rotation, before
// merge decides which concatenations the delta blocks let it skip, so a
// retired block's instructions find their inputs bound. Every file in the
// ring of a live block has therefore passed it.
func (rt *Runtime) admitDeltas(s int, file regFile) {
	for _, b := range rt.deltas {
		if b.src == s && !b.off {
			_, _, ok := b.columns(file)
			b.off = !ok
			clear(b.vals)
		}
	}
}

// deltaMerge is the one function that advances, rebuilds or emits delta
// state. Under the state's lock it brings block b's totals to this
// window: from the previous window's end, it expires the slot file this
// slide evicted and adds the new one; from anywhere else (first merge, a
// window merged by another runtime at a later end, a slide that failed
// before its merge), it rebuilds them from this runtime's slot ring. Then
// it tags them with this window's end and emits: into buf, when it is not
// nil, only the groups the block's filter keeps; else the full head, after
// refreshing the state's registered filters. The state is tx's, shared by the merge tail at this slide's
// phase, or else the runtime's own, tagged by slide count.
func (rt *Runtime) deltaMerge(b *deltaBlock, tx *TailExchange, buf *algebra.EmitBuf) (*vector.Vector, []*vector.Vector) {
	ts, prev, end := rt.own, int64(rt.steps-1), int64(rt.steps)
	if tx != nil && tx.State != nil {
		ts, prev, end = tx.State, tx.Prev, tx.End
	} else if ts == nil {
		ts = &TailState{}
		rt.own = ts
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for len(ts.blocks) <= b.idx {
		ts.blocks = append(ts.blocks, tailBlock{})
	}
	tb := &ts.blocks[b.idx]
	if tb.d == nil {
		tb.d = algebra.NewDelta(b.keyTyp, b.aggTyp, b.aggKind)
	}
	defer clear(b.vals) // don't pin slot vectors
	// admitDeltas vetted every file in the ring, so columns cannot fail.
	ring := rt.slots[b.src]
	advanced := false
	if old := rt.evicted[b.src]; old != nil && tb.tagged && tb.tag == prev {
		keys, vals, _ := b.columns(old)
		if advanced = tb.d.Expire(keys, vals); advanced {
			keys, vals, _ = b.columns(ring[len(ring)-1])
			tb.d.Add(keys, vals)
			ts.expires++
			ts.adds++
		}
	}
	if !advanced {
		tb.d.Reset()
		for _, f := range ring {
			keys, vals, _ := b.columns(f)
			tb.d.Add(keys, vals)
		}
		ts.rebuilds++
	}
	tb.tag, tb.tagged = end, true
	if buf != nil {
		return tb.d.EmitFiltered(b.filter, buf)
	}
	return tb.d.Emit(buf)
}

func (rt *Runtime) gather(spec ConcatSpec) ([]*vector.Vector, error) {
	var vecs []*vector.Vector
	if spec.Kind == ConcatPerBW {
		pos := rt.slotPos[spec.Source][spec.Src]
		for _, file := range rt.slots[spec.Source] {
			d := file[pos]
			if d.Kind != exec.KindVec {
				return nil, fmt.Errorf("core: slot r%d holds non-vector", spec.Src)
			}
			vecs = append(vecs, d.Vec)
		}
		return vecs, nil
	}
	pos := rt.cellPos[spec.Src]
	for _, row := range rt.cells {
		for _, cell := range row {
			d := cell[pos]
			if d.Kind != exec.KindVec {
				return nil, fmt.Errorf("core: cell r%d holds non-vector", spec.Src)
			}
			vecs = append(vecs, d.Vec)
		}
	}
	return vecs, nil
}

// compactLandmark replaces the accumulated slots with a single cumulative
// file whose values are the merged (compensated) globals — one cumulative
// intermediate per merge point, per the paper's landmark design.
func (rt *Runtime) compactLandmark(env []exec.Datum) {
	for s := range rt.ip.Prog.Sources {
		if !rt.windowedStream(s) {
			continue
		}
		file := make(regFile, len(rt.ip.SlotRegs[s]))
		for i, r := range rt.ip.SlotRegs[s] {
			file[i] = env[r]
		}
		rt.slots[s] = []regFile{file}
	}
}

// MemorySlots reports how many basic-window slot files are currently held,
// for observability and tests.
func (rt *Runtime) MemorySlots() int {
	total := 0
	for _, s := range rt.slots {
		total += len(s)
	}
	return total
}

// DeltaState is the footprint of the delta-maintained merge blocks, summed
// over the blocks in use: live groups and partial rows, and the allocated
// capacity of the key tables and row arenas holding them. Adds and Expires
// count the steady-state steps (one partial each) and Rebuilds the
// rebuilds from a slot ring, cumulative over the state's life. Filters is
// the number of HAVING filters the state keeps verdicts for, and Visited
// the records those filters have read (algebra.Delta.Visited).
type DeltaState struct {
	Blocks, Groups, Rows, TableCap, ArenaCap int
	Adds, Expires, Rebuilds                  int
	Filters, Visited                         int
}

// DeltaState reports the delta-maintained merge state, for observability
// and the bounded-state tests: Blocks counts the plan's blocks on the
// delta path (zero when none takes it), everything else is read from the
// runtime's own TailState — zero while it has merged only through shared
// ones (TailState.Stats reports those).
func (rt *Runtime) DeltaState() DeltaState {
	var st DeltaState
	if rt.own != nil {
		st = rt.own.Stats()
	}
	st.Blocks = 0
	for _, b := range rt.deltas {
		if !b.off {
			st.Blocks++
		}
	}
	return st
}

// CellCount reports the number of live join-matrix cells (zero on the
// join index path, which stores none).
func (rt *Runtime) CellCount() int {
	total := 0
	for _, row := range rt.cells {
		total += len(row)
	}
	return total
}

// JoinTableCount reports the number of interned per-basic-window join
// build tables currently held (both sides). Bounded by the live basic
// windows, for observability and the expiry lifecycle tests.
func (rt *Runtime) JoinTableCount() int {
	total := 0
	for _, ring := range rt.joinTables {
		for _, t := range ring {
			if t != nil {
				total++
			}
		}
	}
	return total
}
