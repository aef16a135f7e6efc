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
//   - e.mu guards engine metadata: the stream/table/query registries, the
//     slide groups and each stream's subscriber and group snapshots. Those
//     lists are immutable copy-on-write slices — (de)registration
//     publishes a fresh slice, so receptors iterate them without cloning
//     per append. A group's own mu (members, delta states, emitting
//     member, wake channel) nests inside e.mu, and a query's statsMu
//     inside that.
//   - Each stream's log mutex (basket.Basket) guards that log's segments
//     and cursors. e.mu may be held while acquiring a log lock
//     (Register/Deregister wire cursors under both), never the reverse:
//     receptor and factory paths release e.mu before touching a log and
//     never call back into the engine while holding one.
//   - Each slide group's stepMu serializes its steps, whether run by the
//     group's scheduler worker, a synchronous Pump, or PumpParallel; inside
//     a step each member fires under its own stepMu, and OnResult callbacks
//     run under it, so a query's results are totally ordered. Deregister
//     waits on the query's own stepMu only — never on another member's
//     firing — and not at all from inside the query's own callback.
//     statsMu makes the cumulative counters readable while a worker runs.
//
// Factories take window views under the log lock and execute unlocked
// (immutable sealed segments, append-only tail — see internal/basket), so
// query processing never blocks ingest.
//
// # The one incremental firing path
//
// An incremental query fires through one pipeline (planStep → slidePlan
// → fireSlides in query.go), and fireSlides is the only function that
// drives core.Runtime through slides:
//
//	plan slides → adopt or eval fragments → adopt or merge heads → emit
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
// The scheduler fires slide groups, not queries (group.go). Eligible
// incremental queries on one stream whose canonical pre-merge fragment
// matches (core.IncPlan.FragmentKey) form one group; every other query is
// a group of one and runs the same code. One worker per group runs one
// step at a time: it plans every live member's ready batch, then fires
// the members in registration order, sharing through a memo that lives
// for that step only. A slide whose absolute log range (start and end) an
// earlier member evaluated adopts that slot file; the rest go to one
// EvalFragments on the member's own runtime and into the memo. Members
// whose merge head also matches (core.IncPlan.MergeTailKey, count windows
// only) share it the same way, keyed by window end: the first member to
// reach an end merges it — capturing the head only when a later member of
// the step merges the same end, else emitting into scratch — and the
// later ones adopt it and run only their residual instructions. The group
// holds the tails' delta states, one per tail and slide phase. Nothing is
// claimed, published, waited for or aborted: a member whose step errors
// fails alone, and the next member needing the same range or head
// computes it itself.
//
// A query's OnResult runs on its group's worker, so a reader that stalls
// one member stalls the members sharing its fragment — never a query with
// another fragment, on another stream, or in another group.
//
// Options.Baseline is the one switch off all of this: no group,
// written-order joins, instruction-path merges — how the seed evaluated.
// Results are bit-identical either way; it exists because tests and
// internal/bench use that path as the reference arm.
package engine
