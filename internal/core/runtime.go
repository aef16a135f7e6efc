package core

import (
	"fmt"
	"runtime"
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
// per-cell fragments of the original plan); the merge cost of a step is
// ScatterNS + PartitionNS + StitchNS + MergeNS.
type StepStats struct {
	MainNS int64
	// ScatterNS, PartitionNS and StitchNS are the sharded grouped re-group:
	// the parallel scatter of rows into per-worker x per-shard cells, the
	// per-shard re-group itself, and the pairwise tree stitch that restores
	// global first-occurrence order. All zero for plans without grouped
	// aggregation and for blocks that ran single-shard. MergeNS is the
	// remaining serial merge/compensation work.
	ScatterNS   int64
	PartitionNS int64
	StitchNS    int64
	MergeNS     int64
	// SharedNS is the time spent adopting work another query computed — a
	// shared fragment partial or merge head (registry wait plus handoff).
	// Filled by the engine; zero on slides this query led itself.
	SharedNS int64
	// TotalNS is the wall time of the step, filled by the engine (a firing
	// that drains k slides charges each an equal share).
	TotalNS int64
	// JoinNS is the join-matrix update cost of the slide — planning, build
	// tables, cell evaluation — on both the adaptive and the written-order
	// path, so the two are directly comparable. It is a subset of MainNS.
	JoinNS int64
	// BuildsReused counts the slide's join-matrix cells served by an
	// interned build table instead of building one: probing cells minus
	// tables built this slide. Zero on the written-order path.
	BuildsReused int64
	// Emitted reports whether this step produced a window result (false
	// while the preface, i.e. the first window, is still filling).
	Emitted bool
	// ResultRows is the result cardinality when Emitted.
	ResultRows int
}

// Add accumulates o into s: clocks and counts sum, Emitted is sticky.
func (s *StepStats) Add(o StepStats) {
	s.MainNS += o.MainNS
	s.ScatterNS += o.ScatterNS
	s.PartitionNS += o.PartitionNS
	s.StitchNS += o.StitchNS
	s.MergeNS += o.MergeNS
	s.SharedNS += o.SharedNS
	s.TotalNS += o.TotalNS
	s.JoinNS += o.JoinNS
	s.BuildsReused += o.BuildsReused
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
// order). It is the unit of merge-tail sharing: every column is freshly
// allocated by the block and immutable afterwards, so queries with equal
// MergeTailKeys at the same absolute window end can adopt one head
// read-only and run only their residual tail over it.
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
// The engine guarantees deadlock freedom by acquiring leadership per
// absolute window end and processing slides in ascending end order: a
// leader waiting in Fetch can only wait on strictly smaller ends.
type TailExchange struct {
	Fetch   func() (*MergeHead, error)
	Publish func(*MergeHead, error)
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
	// hash table per cell instead of being planned greedily. Results are
	// identical; it exists because tests and internal/bench use that path
	// as the reference.
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

	// groupMergeAt indexes the plan's grouped merge blocks by their start
	// instruction; partitioner and the shard scratch below are the reusable
	// state of the partition-parallel merge path (hashtables survive across
	// slides via Reset, so steady-state grouped queries allocate no tables
	// per firing).
	groupMergeAt map[int]*GroupMergeSpec
	partitioner  *algebra.Partitioner
	shardGroups  []*algebra.Groups
	shardAggs    [][]*vector.Vector
	mergeKeys    []*vector.Vector
	stitchOrder  []algebra.ShardRef
	stitchRepr   vector.Sel

	// fused is the scatter/shard/tree-stitch kernel state of the
	// single-int64-key grouped merge fast path; the scratch below carries
	// the per-part column layout into it. lazyConcat binds multi-part
	// concatenations as views so the fused kernel reads slot partials in
	// place instead of materializing a fresh concatenation every firing.
	fused      *algebra.Fused
	fusedAggs  []algebra.FusedAgg
	fusedParts []fusedPart
	lazyConcat bool

	// deltas are the delta-maintained grouped merge blocks (MergeDelta), in
	// plan order; deltaAt indexes them by their start instruction like
	// groupMergeAt. deltaSynced says their state mirrors the slot ring: it
	// is dropped for the duration of every slide, so a slide that errors
	// after rotation leaves it false and the next one rebuilds from the
	// ring instead of trusting a half-advanced state.
	deltas      []*deltaBlock
	deltaAt     map[int]*deltaBlock
	deltaSynced bool
	// deltaCat maps a concatenation's destination to the delta block that
	// is its only reader; merge skips those concatenations (the block emits
	// from its own state).
	deltaCat map[plan.Reg]*deltaBlock

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
		rt.groupMergeAt = make(map[int]*GroupMergeSpec, len(ip.GroupMerges))
		for i := range ip.GroupMerges {
			rt.groupMergeAt[ip.GroupMerges[i].Start] = &ip.GroupMerges[i]
		}
		rt.partitioner = algebra.NewPartitioner()
		rt.fused = algebra.NewFused()
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
	rt.initJoinPlanner(opts)
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
	rt.steps += len(files)
	rt.runStatic(inputs)
	out := make([]StepResult, len(files))
	for sl := range files {
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
	synced := rt.deltaSynced
	rt.deltaSynced = false // until this slide completes without error
	var deltaNS int64
	evicted := false
	for j, s := range rt.srcIdx {
		file := newFiles[j]
		if len(rt.pending[s]) > 0 {
			chunks := append(rt.pending[s], file)
			file = rt.combineChunks(s, chunks)
			rt.pending[s] = nil
		}
		var old regFile
		if !rt.ip.Landmark && len(rt.slots[s]) == rt.ip.N {
			// Transition phase: expire the oldest basic window.
			old = rt.slots[s][0]
			rt.slots[s] = rt.slots[s][1:]
			evicted = true
		}
		rt.slots[s] = append(rt.slots[s], file)
		if len(rt.deltas) > 0 {
			// The delta-maintained blocks advance with the ring on every
			// slide, whether or not this runtime goes on to merge it.
			td := time.Now()
			rt.advanceDeltas(s, old, file, synced)
			deltaNS += time.Since(td).Nanoseconds()
		}
	}
	if rt.ip.HasJoin {
		tj := time.Now()
		if err := rt.updateCells(evicted, inputs, stats); err != nil {
			return nil, err
		}
		stats.JoinNS = time.Since(tj).Nanoseconds()
	}
	// Maintaining merge state is merge work, not fragment work.
	stats.MainNS += time.Since(t1).Nanoseconds() - deltaNS
	stats.MergeNS += deltaNS

	if !rt.ready() {
		if tx != nil && tx.Publish != nil {
			// The window is still filling: nothing merged, nothing to adopt.
			tx.Publish(nil, nil)
		}
		rt.deltaSynced = true
		return nil, nil
	}
	t2 := time.Now()
	tbl, env, err := rt.merge(inputs, tx, stats)
	if err != nil {
		return nil, err
	}
	if rt.ip.Landmark {
		rt.compactLandmark(env)
	}
	// env is the reusable merge register file: clear it so it does not pin
	// the slide's concatenations and result columns past this firing.
	clear(env)
	stats.MergeNS += time.Since(t2).Nanoseconds() - stats.ScatterNS - stats.PartitionNS - stats.StitchNS
	rt.deltaSynced = true
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
// exact post-filter cardinalities of the slide.
func (rt *Runtime) updateCells(evicted bool, inputs []exec.Input, stats *StepStats) error {
	ls, rs := rt.ip.CellSources[0], rt.ip.CellSources[1]
	if evicted && len(rt.cells) > 0 {
		rt.cells = rt.cells[1:]
		for i := range rt.cells {
			rt.cells[i] = rt.cells[i][1:]
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
			return err
		}
	}
	if cap(rt.cellFiles) < len(coords) {
		rt.cellFiles = make([]regFile, len(coords))
	}
	cfiles := rt.cellFiles[:len(coords)]
	err := rt.forEach(len(coords), func(t int, w *workerEnv) error {
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
		return err
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
	return nil
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

// fusedPart is one contiguous part of a grouped block's input columns,
// aligned row-for-row: the key payload plus one AggCol per aggregate.
type fusedPart struct {
	base int32
	keys []int64
	aggs []algebra.AggCol
}

// merge binds the concatenations, runs the merge fragment and returns the
// window result plus the merge environment (used for landmark compaction);
// sharded grouped re-groups add their scatter / partition / stitch times to
// stats.
// Grouped-aggregation blocks execute through mergeGrouped — fused and
// partitioned across the worker pool when the partials are large enough —
// instead of instruction-by-instruction; results are bit-identical either
// way. Multi-part concatenations bind as views when the plan allows it, so
// the grouped kernel reads slot partials in place and a fresh
// concatenation is only materialized for consumers that need one (vec()
// caches it in the register on first use).
func (rt *Runtime) merge(inputs []exec.Input, tx *TailExchange, stats *StepStats) (*exec.Table, []exec.Datum, error) {
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
		if spec, ok := rt.groupMergeAt[idx]; ok {
			handled, err := rt.mergeGrouped(spec, env, stats)
			if err != nil {
				return nil, nil, err
			}
			if handled {
				idx += spec.Len - 1
				continue
			}
		}
		in := rt.ip.Merge[idx]
		if in.Op == plan.OpResult {
			tbl, err := exec.BuildResult(in, env)
			if err != nil {
				return nil, nil, fmt.Errorf("core: merge result: %w", err)
			}
			result = tbl
			continue
		}
		if err := exec.ExecInstr(in, env, inputs); err != nil {
			return nil, nil, fmt.Errorf("core: merge stage: %w", err)
		}
	}
	publishHead() // block ends at the final instruction
	if result == nil {
		return nil, nil, fmt.Errorf("core: merge produced no result")
	}
	return result, env, nil
}

// partitionMinRows is the concatenated-partial size below which sharding
// overhead (the partition scan plus worker handoff) outweighs the parallel
// re-group; smaller blocks run single-shard on the reusable hashtable.
const partitionMinRows = 256

// mergeShards picks the shard count for a grouped merge block of the given
// size: the worker bound, capped by the schedulable CPUs — sharding beyond
// them cannot overlap and only adds partition/stitch overhead — and by the
// minimum block size. Results are bit-identical at every shard count, so
// the cap trades speed only.
func (rt *Runtime) mergeShards(rows int) int {
	if rt.par <= 1 || rows < partitionMinRows {
		return 1
	}
	p := rt.par
	if g := runtime.GOMAXPROCS(0); p > g {
		p = g
	}
	return p
}

// mergeGrouped executes one grouped-aggregation compensation block,
// bit-identical to the plain instruction path at any configuration. Three
// kernels implement it (MergeKernel says which a block gets):
//
//   - the delta-maintained kernel (single int64/timestamp key, integer
//     Sum partials from one windowed source): the block's totals were kept
//     current by advanceDeltas at slot rotation, so merging is one
//     sequential emission — no re-group, no scatter, at any Parallelism;
//   - the fused scatter/shard/tree-stitch kernel (single int64/timestamp
//     key, Sum/Min/Max over int64/float64 partials): grouping and
//     aggregation run in one pass per shard over scattered row payloads,
//     and shards stitch back pairwise up a binary tree;
//   - the index-based Partitioner kernel for every other shape (generic
//     multi-column keys, non-numeric aggregates), unchanged from PR 5.
//
// For the re-grouping kernels P degrades to 1 (reusing the hashtable,
// skipping scatter and stitch) when parallelism is off or the block is too
// small to shard profitably.
func (rt *Runtime) mergeGrouped(spec *GroupMergeSpec, env []exec.Datum, stats *StepStats) (handled bool, err error) {
	if b := rt.deltaAt[spec.Start]; b != nil && !b.off {
		keyVec, aggVecs := b.d.Emit()
		env[spec.KeyOuts[0]] = exec.VecDatum(keyVec)
		for i, ag := range spec.Aggs {
			env[ag.Out] = exec.VecDatum(aggVecs[i])
		}
		return true, nil
	}
	if ok, err := rt.mergeFused(spec, env, stats); ok || err != nil {
		return ok, err
	}
	return rt.mergeGroupedIndex(spec, env, stats)
}

// Merge kernel names, as MergeKernel and Explain report them.
const (
	MergeDelta       = "delta"
	MergeFused       = "fused"
	MergeIndex       = "index"
	MergeInstruction = "instruction"
)

// MergeKernel names the kernel a runtime built with opts runs grouped
// merge block i through and, unless that is the delta-maintained kernel,
// the first reason the block does not qualify for it. The choice follows
// from the plan's shape alone; Baseline is the only switch.
func (ip *IncPlan) MergeKernel(i int, opts Options) (kernel, reason string) {
	spec := &ip.GroupMerges[i]
	if opts.Baseline {
		return MergeInstruction, "baseline"
	}
	singleIntKey := len(spec.KeyTypes) == 1 && vector.IntKind(spec.KeyTypes[0])
	kernel = MergeIndex
	if singleIntKey {
		kernel = MergeFused
		for _, ag := range spec.Aggs {
			if !(algebra.FusedAgg{Kind: ag.Kind, Typ: ag.Typ}).Fusible() {
				kernel = MergeIndex
			}
		}
	}
	switch {
	case ip.Landmark:
		return kernel, "landmark"
	case ip.HasJoin || spec.Source < 0:
		return kernel, "join-fed"
	case !singleIntKey:
		return kernel, "generic key"
	}
	for _, ag := range spec.Aggs {
		switch {
		case ag.Kind == algebra.AggMin || ag.Kind == algebra.AggMax:
			return kernel, "min/max"
		case ag.Kind == algebra.AggSum && ag.Typ == vector.Float64:
			return kernel, "float sum"
		case !(algebra.FusedAgg{Kind: ag.Kind, Typ: ag.Typ}).Invertible():
			return kernel, "non-invertible aggregate"
		}
	}
	return MergeDelta, ""
}

// MergeKernels names the kernel this runtime runs each grouped merge block
// of its plan through, in plan order.
func (rt *Runtime) MergeKernels() []string {
	out := make([]string, len(rt.ip.GroupMerges))
	for i := range out {
		out[i], _ = rt.ip.MergeKernel(i, rt.opts)
		if b := rt.deltaAt[rt.ip.GroupMerges[i].Start]; out[i] == MergeDelta && (b == nil || b.off) {
			out[i] = MergeFused // retired by a slot file of unexpected shape
		}
	}
	return out
}

// deltaBlock is the runtime-private state of one delta-maintained grouped
// merge block: the kernel state plus where its key and aggregate partials
// sit in the feeding source's slot files. Slot files may be shared with
// other queries through the fragment catalog and are only ever read here —
// every per-row side array lives inside d.
type deltaBlock struct {
	d      *algebra.Delta
	src    int
	keyPos int
	aggPos []int
	keyTyp vector.Type
	aggTyp []vector.Type
	vals   [][]int64 // scratch: one slot file's aggregate columns
	// off retires the block to the re-grouping kernels for good: a slot
	// file did not have the statically derived shape.
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
		b := &deltaBlock{src: spec.Source, keyTyp: spec.KeyTypes[0], vals: make([][]int64, len(spec.Aggs))}
		pos, ok := rt.slotPos[b.src][catSrc[spec.CatKeys[0]]]
		b.keyPos = pos
		for _, ag := range spec.Aggs {
			p, found := rt.slotPos[b.src][catSrc[ag.Cat]]
			ok = ok && found
			b.aggPos = append(b.aggPos, p)
			b.aggTyp = append(b.aggTyp, ag.Typ)
		}
		if !ok {
			continue
		}
		b.d = algebra.NewDelta(b.keyTyp, b.aggTyp)
		if rt.deltaAt == nil {
			rt.deltaAt = map[int]*deltaBlock{}
			rt.deltaCat = map[plan.Reg]*deltaBlock{}
		}
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

// advanceDeltas moves every delta block fed by source s one slide forward:
// old (nil while the window is filling) left the slot ring, file entered
// it. A block that was not in sync with the ring — first slide, or a
// previous slide errored after rotation — is rebuilt from the ring.
func (rt *Runtime) advanceDeltas(s int, old, file regFile, synced bool) {
	for _, b := range rt.deltas {
		if b.src != s || b.off {
			continue
		}
		if synced && rt.advanceDelta(b, old, file) {
			continue
		}
		b.d.Reset()
		for _, f := range rt.slots[s] {
			keys, vals, ok := b.columns(f)
			if !ok {
				b.off = true
				break
			}
			b.d.Add(keys, vals)
		}
		clear(b.vals)
	}
}

// advanceDelta is the steady-state step: subtract the expired basic
// window's partial, add the new one. It reports false when the state and
// the ring disagree, which sends the block through a rebuild.
func (rt *Runtime) advanceDelta(b *deltaBlock, old, file regFile) bool {
	defer clear(b.vals) // don't pin slot vectors
	if old != nil {
		keys, vals, ok := b.columns(old)
		if !ok || !b.d.Expire(keys, vals) {
			return false
		}
	}
	keys, vals, ok := b.columns(file)
	if ok {
		b.d.Add(keys, vals)
	}
	return ok
}

// datumCol reports the column type and row count of a merge input that is
// either a dense vector or a multi-part view.
func datumCol(d exec.Datum) (vector.Type, int, bool) {
	switch d.Kind {
	case exec.KindVec:
		return d.Vec.Type(), d.Vec.Len(), true
	case exec.KindView:
		return d.View.Type(), d.View.Len(), true
	}
	return 0, 0, false
}

// datumParts lists a merge input's contiguous parts (a dense vector is
// one part).
func datumParts(d exec.Datum) []*vector.Vector {
	if d.Kind == exec.KindVec {
		return []*vector.Vector{d.Vec}
	}
	return d.View.Parts()
}

// mergeFused runs the grouped block through the fused kernel when its
// shape allows, reading the (possibly multi-part) inputs in place.
func (rt *Runtime) mergeFused(spec *GroupMergeSpec, env []exec.Datum, stats *StepStats) (bool, error) {
	if len(spec.CatKeys) != 1 {
		return false, nil
	}
	keyD := env[spec.CatKeys[0]]
	keyTyp, rows, ok := datumCol(keyD)
	if !ok || !vector.IntKind(keyTyp) {
		return false, nil
	}
	aggs := rt.fusedAggs[:0]
	for _, ag := range spec.Aggs {
		d := env[ag.Cat]
		typ, n, ok := datumCol(d)
		if !ok || n != rows {
			return false, nil
		}
		fa := algebra.FusedAgg{Kind: ag.Kind, Typ: typ}
		if !fa.Fusible() {
			return false, nil
		}
		aggs = append(aggs, fa)
	}
	rt.fusedAggs = aggs

	// Align the key and aggregate columns part-for-part. All columns of
	// one block concatenate the same slot ring, so their part layouts
	// coincide; any mismatch (impossible today, cheap to verify) falls
	// back to the index kernel over dense columns.
	keyParts := datumParts(keyD)
	parts := rt.fusedParts[:0]
	base := int32(0)
	for _, kp := range keyParts {
		parts = append(parts, fusedPart{base: base, keys: kp.Int64s()})
		base += int32(kp.Len())
	}
	for _, ag := range spec.Aggs {
		aps := datumParts(env[ag.Cat])
		if len(aps) != len(parts) {
			rt.fusedParts = parts
			return false, nil
		}
		for j, ap := range aps {
			if ap.Len() != len(parts[j].keys) {
				rt.fusedParts = parts
				return false, nil
			}
			var col algebra.AggCol
			if ap.Type() == vector.Float64 {
				col.F = ap.Float64s()
			} else {
				col.I = ap.Int64s()
			}
			parts[j].aggs = append(parts[j].aggs, col)
		}
	}
	rt.fusedParts = parts
	defer func() {
		// Release the part references so they do not pin slot vectors.
		for j := range rt.fusedParts {
			rt.fusedParts[j] = fusedPart{}
		}
	}()

	f := rt.fused
	p := rt.mergeShards(rows)
	if p == 1 {
		f.Begin(1, 1, rows, keyTyp, aggs)
		for _, pt := range parts {
			f.GroupRangeDirect(pt.keys, pt.aggs, 0, len(pt.keys))
		}
	} else {
		workers := rt.scatterWorkers(rows)
		f.Begin(p, workers, rows, keyTyp, aggs)
		t0 := time.Now()
		err := rt.forEach(workers, func(w int, _ *workerEnv) error {
			lo, hi := w*rows/workers, (w+1)*rows/workers
			for _, pt := range parts {
				plo, phi := int(pt.base), int(pt.base)+len(pt.keys)
				a, b := lo, hi
				if a < plo {
					a = plo
				}
				if b > phi {
					b = phi
				}
				if a < b {
					f.ScatterRange(w, pt.base, pt.keys, pt.aggs, a-plo, b-plo)
				}
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		t1 := time.Now()
		stats.ScatterNS += t1.Sub(t0).Nanoseconds()
		err = rt.forEach(p, func(s int, _ *workerEnv) error {
			f.GroupShard(s)
			return nil
		})
		if err != nil {
			return false, err
		}
		t2 := time.Now()
		stats.PartitionNS += t2.Sub(t1).Nanoseconds()
		for pairs := f.BeginStitch(); pairs > 0; pairs = f.CommitLevel() {
			if err := rt.forEach(pairs, func(i int, _ *workerEnv) error {
				f.StitchPair(i)
				return nil
			}); err != nil {
				return false, err
			}
		}
		defer func() {
			stats.StitchNS += time.Since(t2).Nanoseconds()
		}()
	}
	keyVec, aggVecs := f.Finish()
	env[spec.KeyOuts[0]] = exec.VecDatum(keyVec)
	for i, ag := range spec.Aggs {
		env[ag.Out] = exec.VecDatum(aggVecs[i])
	}
	return true, nil
}

// scatterWorkers bounds the scatter fan-out so each worker covers a
// meaningful range (a worker per few thousand rows saturates memory
// bandwidth; more just adds handoff).
func (rt *Runtime) scatterWorkers(rows int) int {
	w := rows / 4096
	if w > rt.par {
		w = rt.par
	}
	if w < 1 {
		w = 1
	}
	return w
}

// mergeGroupedIndex is the index-based grouped kernel: partition row ids,
// re-group each shard through GroupWithKeys, stitch serially by ascending
// representative. It handles every key/aggregate shape the fused kernel
// does not.
func (rt *Runtime) mergeGroupedIndex(spec *GroupMergeSpec, env []exec.Datum, stats *StepStats) (handled bool, err error) {
	t0 := time.Now()
	sharded := false
	var scat int64
	defer func() {
		if handled && sharded {
			stats.ScatterNS += scat
			stats.PartitionNS += time.Since(t0).Nanoseconds() - scat
		}
	}()
	// This kernel gathers random rows, so it needs dense columns;
	// materialize any lazily bound views once (vec() semantics: the dense
	// copy is cached back into the register).
	for _, r := range spec.CatKeys {
		if d := env[r]; d.Kind == exec.KindView {
			env[r] = exec.VecDatum(d.View.Vector())
		}
	}
	for _, ag := range spec.Aggs {
		if d := env[ag.Cat]; d.Kind == exec.KindView {
			env[ag.Cat] = exec.VecDatum(d.View.Vector())
		}
	}
	if cap(rt.mergeKeys) < len(spec.CatKeys) {
		rt.mergeKeys = make([]*vector.Vector, len(spec.CatKeys))
	}
	keys := rt.mergeKeys[:len(spec.CatKeys)]
	for i, r := range spec.CatKeys {
		d := env[r]
		if d.Kind != exec.KindVec {
			return false, nil // fall back to the plain instruction path
		}
		keys[i] = d.Vec
	}
	rows := keys[0].Len()
	p := rt.mergeShards(rows)
	pt := rt.partitioner
	if p == 1 {
		// Single shard: group on the reusable hashtable, skip the partition
		// scan and the stitch/gather copies (order is already global).
		tbl := pt.Table0()
		tbl.Reset(rows)
		g := algebra.GroupWith(tbl, keys, nil)
		for i, r := range spec.KeyOuts {
			env[r] = exec.VecDatum(keys[i].Take(g.Repr))
		}
		for _, ag := range spec.Aggs {
			d := env[ag.Cat]
			if d.Kind != exec.KindVec {
				return false, fmt.Errorf("core: grouped merge r%d holds non-vector partials", ag.Cat)
			}
			env[ag.Out] = exec.VecDatum(algebra.GroupedAgg(ag.Kind, d.Vec, nil, g))
		}
		clear(keys) // don't pin the slide's concatenated key columns
		return true, nil
	}
	sharded = true
	pt.Reset(p)
	ts := time.Now()
	if workers := rt.scatterWorkers(rows); workers > 1 {
		// Parallel scatter: each worker hashes a contiguous ascending row
		// range into private per-worker x per-shard sub-selections, then
		// the shards concatenate their cells in worker order — shard
		// contents identical to the serial Split scan at any worker count.
		generic := !(len(keys) == 1 && vector.IntKind(keys[0].Type()))
		pt.BeginScatter(workers, rows, generic)
		if scErr := rt.forEach(workers, func(w int, _ *workerEnv) error {
			lo, hi := w*rows/workers, (w+1)*rows/workers
			if generic {
				pt.ScatterGenericRange(w, keys, lo, hi)
			} else {
				pt.ScatterIntRange(w, keys[0].Int64s(), lo, hi)
			}
			return nil
		}); scErr != nil {
			return false, scErr
		}
		if fErr := rt.forEach(p, func(s int, _ *workerEnv) error {
			pt.FinishShard(s)
			return nil
		}); fErr != nil {
			return false, fErr
		}
	} else {
		pt.Split(keys)
	}
	scat = time.Since(ts).Nanoseconds()
	rowKeys := pt.RowKeys() // generic keys built once in the Split scan

	if cap(rt.shardGroups) < p {
		rt.shardGroups = make([]*algebra.Groups, p)
		rt.shardAggs = make([][]*vector.Vector, p)
	}
	shards := rt.shardGroups[:p]
	aggs := rt.shardAggs[:p]
	poolErr := rt.forEach(p, func(s int, _ *workerEnv) error {
		sel := pt.Shard(s)
		hint := rows
		if sel != nil {
			hint = len(sel)
		}
		tbl := pt.Table(s)
		tbl.Reset(hint)
		g := algebra.GroupWithKeys(tbl, keys, sel, rowKeys)
		shards[s] = g
		if cap(aggs[s]) < len(spec.Aggs) {
			aggs[s] = make([]*vector.Vector, len(spec.Aggs))
		} else {
			aggs[s] = aggs[s][:len(spec.Aggs)]
		}
		for ai, ag := range spec.Aggs {
			d := env[ag.Cat]
			if d.Kind != exec.KindVec {
				return fmt.Errorf("core: grouped merge r%d holds non-vector partials", ag.Cat)
			}
			// The per-shard accumulator vectors live in rt.shardAggs across
			// firings; GroupedAggInto refills them in place.
			aggs[s][ai] = algebra.GroupedAggInto(ag.Kind, d.Vec, sel, g, aggs[s][ai])
		}
		return nil
	})
	if poolErr != nil {
		return false, poolErr
	}
	rt.stitchOrder, rt.stitchRepr = algebra.StitchShardsInto(shards, rt.stitchOrder, rt.stitchRepr)
	order, repr := rt.stitchOrder, rt.stitchRepr
	for i, r := range spec.KeyOuts {
		env[r] = exec.VecDatum(keys[i].Take(repr))
	}
	for ai, ag := range spec.Aggs {
		cols := make([]*vector.Vector, p)
		for s := 0; s < p; s++ {
			cols[s] = aggs[s][ai]
		}
		env[ag.Out] = exec.VecDatum(algebra.GatherShards(cols, order))
	}
	for s := range shards {
		shards[s] = nil // the table-owned groups stay with their tables
	}
	pt.ReleaseKeys()
	clear(keys) // don't pin the slide's concatenated key columns
	return true, nil
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
// capacity of the key tables and row arenas holding them.
type DeltaState struct {
	Blocks, Groups, Rows, TableCap, ArenaCap int
}

// DeltaState reports the delta-maintained merge state, for observability
// and the bounded-state tests. Blocks is zero when no block of the plan
// takes the delta path.
func (rt *Runtime) DeltaState() DeltaState {
	var st DeltaState
	for _, b := range rt.deltas {
		if b.off {
			continue
		}
		st.Blocks++
		st.Groups += b.d.Groups()
		st.Rows += b.d.Rows()
		st.TableCap += b.d.TableCap()
		st.ArenaCap += b.d.ArenaCap()
	}
	return st
}

// CellCount reports the number of live join-matrix cells.
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
