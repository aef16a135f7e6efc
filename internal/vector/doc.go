// Package vector implements the columnar storage primitives of the
// reproduction: typed, densely packed columns (the analogue of MonetDB's
// BATs) together with multi-part views and selection vectors.
//
// Every operator in internal/algebra consumes and produces vectors; the
// DataCell incremental rewriter relies on the fact that intermediates are
// ordinary, fully materialized vectors that can be retained across window
// slides and concatenated cheaply.
//
// # Contract and sharing rules
//
//   - Vector is append-only by its owner. Slice returns zero-copy views
//     (three-index slices) that must be treated as read-only; appending to
//     a slice view is forbidden — it would clobber the parent.
//   - View is a read-only, possibly discontiguous column: an ordered list
//     of Vector parts cut from basket segments. Views never own payloads;
//     they alias immutable sealed segments (or a stable tail prefix) and
//     keep the backing arrays alive, so a view taken under the log lock
//     stays valid unlocked, across seals and reclamation, and may be read
//     from multiple goroutines concurrently.
//   - Part-aware consumers iterate views with ForEachPart / View.Take /
//     the *Into kernels in internal/algebra; View.Vector flattens (zero
//     copy when contiguous, one copy otherwise) and View.Materialize
//     always copies — use Materialize for any value that must outlive the
//     segments it was cut from. Whoever stores a view-derived value beyond
//     the current step owns that copy.
//   - Sel is a list of int32 row positions; nil conventionally means "all
//     rows". Filter outputs are ascending, which View.Take exploits with a
//     single monotonic part walk.
//   - codec.go is the one definition of a column's payload bytes, which
//     the wire block (internal/serve) and the segment record
//     (internal/storage) share; its decoder checks every length before
//     growing a column.
package vector
