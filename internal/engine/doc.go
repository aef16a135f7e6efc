// Package engine implements the DataCell architecture around the kernel:
// receptors feed stream tuples into per-stream segment logs, factories
// (continuous-query executors) fire when their input cursors can fill the
// next window step, and emitters deliver results — the Petri-net
// scheduling model of the paper. Both execution modes are provided:
// incremental (the paper's contribution, via internal/core) and full
// re-evaluation (the DataCellR baseline).
//
// # Contract and locking rules
//
// Three lock domains, with a strict order between the first two:
//
//   - e.mu guards engine metadata: the stream/table/query registries and
//     each stream's subscriber snapshot. Subscriber lists are immutable
//     copy-on-write slices — (de)registration publishes a fresh slice, so
//     receptors iterate them without cloning per append.
//   - Each stream's log mutex (basket.Basket) guards that log's segments
//     and cursors. e.mu may be held while acquiring a log lock
//     (Register/Deregister wire cursors under both), never the reverse:
//     receptor and factory paths release e.mu before touching a log and
//     never call back into the engine while holding one.
//   - Each query's stepMu serializes its window steps, whether fired by
//     the query's own scheduler worker, a synchronous Pump, or
//     PumpParallel; statsMu makes the cumulative counters readable while
//     a worker runs. OnResult callbacks run under stepMu, so a query's
//     results are totally ordered.
//
// Factories take window views under the log lock and execute unlocked
// (immutable sealed segments, append-only tail — see internal/basket), so
// query processing never blocks ingest.
//
// # The one incremental firing path
//
// An incremental query fires through one pipeline (fireIncremental →
// slidePlan → fireSlides in query.go), and fireSlides is the only function
// that drives core.Runtime through slides:
//
//	plan slides → claim → eval → publish → adopt → apply → emit
//
// slidePlan always yields k >= 1 buffered slides: with Options.Parallelism
// > 1 a backlog is taken in batches — pure count windows by fixed stride,
// pure time windows by precomputed watermark-closed boundaries — so the
// per-basic-window fragments of all k slides evaluate concurrently
// (core.Runtime.EvalFragments) before the serial core.Runtime.Apply replays
// them in order; at parallelism 1, and for landmark, mixed count/time and
// chunked queries, k = 1. One slide, private evaluation and multi-source
// joins are degenerate cases of the same code, not separate paths. The
// re-evaluation path (fireReevaluation, the paper's DataCellR baseline)
// fans per-segment partials of its full-window scan across the same worker
// bound (exec.PartialProgram). Results are identical to sequential
// execution at every setting.
//
// # The one sharing mechanism
//
// Across queries, each stream carries a shareRegistry (the shared-plan
// catalog) of partialCaches — one generic leader/follower cache with two
// instantiations. Eligible incremental queries whose canonical pre-merge
// fragment matches (core.IncPlan.FragmentKey) intern one sharedFragment:
// each slide's slot file is evaluated once by whichever subscriber claims
// its log position first and adopted by the rest. Queries whose merge head
// also matches (core.IncPlan.MergeTailKey, count windows only) intern one
// sharedTail the same way, keyed by window end, and followers run only
// their residual instructions. The cache's locks nest strictly inside the
// engine order above: e.mu → shareRegistry.mu → partialCache.mu. A query
// fixes its leadership for a firing up front and publishes every fragment
// partial it owes before waiting on any other, and merge heads are waited
// for in ascending window-end order, so sharing introduces no cross-query
// deadlock (see partialCache). Deregistration releases the refcount; the
// last subscriber's detach deletes the cache.
//
// Options.Baseline is the one switch off all of this: no catalog attach,
// written-order joins, instruction-path merges — how the seed evaluated.
// Results are bit-identical either way; it exists because tests and
// internal/bench use that path as the reference arm.
package engine
