// Package core implements the paper's primary contribution: rewriting an
// optimized physical query plan into an *incremental* plan, plus the
// runtime that executes it across window slides.
//
// # The rewrite (Section 3 of the paper)
//
// Rewrite applies the paper's four transformations:
//
//  1. Split — the input stream is cut into n = |W|/|w| basic windows.
//  2. Per-basic-window processing — the deepest possible prefix of the plan
//     is replicated so it runs independently on each basic window
//     ("split the plan as deep as possible").
//  3. Merge — partial intermediates are concatenated and compensated:
//     simple concatenation for selections/maps (Fig 3a), re-applied
//     aggregates for sum/min/max and sum-of-counts for count (Fig 3b),
//     re-grouping for grouped aggregation (Fig 3d). avg was already
//     expanded to sum+count+div by the planner (Fig 3c).
//  4. Transition — intermediates slide with the window: per-basic-window
//     slots rotate, and join matrices expire a row and column per step
//     (Fig 3e: the join is replicated n×n times, only the new row and
//     column are evaluated per slide).
//
// Landmark windows keep one cumulative intermediate per merge point
// instead of a ring of n slots (Section 3, "Landmark Window Queries").
//
// # The runtime: stages, parallelism, locking
//
// Runtime executes the rewritten plan in stages per slide: static (table
// binds, once), per-basic-window fragments (one per new basic window per
// windowed source), join-matrix cells (one per new cell), then the serial
// merge. The contract that enables intra-query parallelism:
//
//   - Per-bw fragments and new join cells are pure: they read only the
//     immutable plan, the static environment, table inputs and (immutable,
//     taken-under-the-log-lock) segment views, and write only a private
//     worker environment. Fragments of distinct basic windows — including
//     basic windows of distinct buffered slides (one EvalFragments call) —
//     may therefore run concurrently.
//   - Options.Parallelism bounds the worker pool; workers deposit slot
//     files into indexed positions and the transition stage stays
//     single-threaded, so results are bit-identical at every setting.
//   - The merge stage is serial. Each grouped-aggregation block
//     (IncPlan.GroupMerges) runs one of two kernels (IncPlan.MergeKernel):
//     its own instructions, the code Baseline runs, or the delta state.
//   - Blocks on one integer key from one windowed source, not landmark,
//     whose compensating aggregates are all integer Sum, Min or Max, are
//     not re-grouped at all: their per-key totals (algebra.Delta) are kept
//     across slides in a TailState, and the merge adds the new basic
//     window's partial and takes out the expired one (a Min/Max extreme
//     the expired row set is rescanned along the group's live rows). Float
//     sums, float extremes, multi-column keys, join-fed and landmark
//     blocks run their instructions as written. The TailState belongs to the merge tail — the engine
//     hands one per tail per slide phase to every member through
//     TailExchange — or, without one, to the Runtime. Only a runtime that
//     merges a window itself touches it (deltaMerge): it steps the totals
//     when their tag is the previous window's end, rebuilds them from its
//     own slot ring otherwise, tags them with this window's end and emits;
//     a runtime that adopts a MergeHead never reads or allocates it. Slot
//     files are only ever read — they may be shared with other queries —
//     so every per-row side array (next-occurrence links, first-row flags,
//     running totals) lives in the state's arena, never in a slot vector.
//     A head that may be published is emitted into fresh columns, so
//     published heads stay immutable; one nobody can adopt (no tail, a
//     private follower, a solo leader — TailExchange.Publish nil) whose
//     residual is a HAVING select/take chain over it (IncPlan.HeadFilter)
//     is emitted into the block's reusable scratch, and holds only the
//     groups the filter keeps: the state keeps the filter's verdict per
//     group head, refreshed over the heads each advance touched
//     (algebra.Delta.EmitFiltered), and the residual's selects then keep
//     every row. Every other emit refreshes the registered filters and
//     writes the full head; a filter no emit used between two advances is
//     dropped.
//   - Slot files must survive basket reclamation: values that alias log
//     storage (bind registers, unflattened views) are cloned/materialized
//     by runPerBW before entering a slot. The Runtime owns its slots and
//     cells exclusively; callers serialize EvalFragments/Apply/PushChunk
//     (the engine does so via its per-query step mutex).
//   - A join plan whose matrix aggregates all fold through panes
//     (IncPlan.JoinIndex) keeps no cells: one chained hash index per join
//     side over the live basic windows takes the new rows, each new row
//     probes the other side's index once, and each hit folds straight
//     into the pane of its cell (joinindex.go). The index is serial and
//     its folds are integer, so results stay bit-identical to the cells.
//
// The Runtime takes one lock: a TailState's mutex, held inside the merge
// while a delta block is stepped or rebuilt and emitted, because other
// members of the merge tail may be merging neighbouring windows through
// the same state. It never waits on anything while holding it. For the
// rest it relies on its caller for step serialization and on the basket's
// immutability rules for unlocked view reads.
//
// # Fragment canonicalization and the split step
//
// IncPlan.FragmentKey renders a windowed source's per-basic-window
// program in canonical form — window kind + slide (not length), registers
// renumbered by first definition, semantic operands included — so two
// queries that compute the same per-slide partial produce the same key
// even when their window lengths and merge tails differ;
// FragmentFingerprint hashes it for display. So that the engine can
// evaluate such a fragment once and fan it out, the runtime's work is
// addressable as exactly two primitives: EvalFragments runs only the
// pre-merge fragment pipeline of buffered slides — touching no runtime
// state — and returns their slot files, and Apply consumes slot files (own
// or adopted from another query) through the private slot rotation, join
// matrix and merge, optionally exchanging each window's grouped merge head
// (TailExchange). EvalFragments output is immutable and holds only owned
// vectors, so one slot file may enter any number of queries' slot rings.
// Step is their composition for a single slide. Every stage adds its time
// to one StepStats record per slide, which the engine sums (StepStats.Add)
// into the query's cumulative clock.
//
// SplitForReevaluation reuses the rewriter for the re-evaluation baseline:
// the per-basic-window fragment doubles as a per-segment-part prefix and
// the merge stage as its combine tail (exec.PartialProgram), so full-window
// scans parallelize across segments with the same machinery.
package core
