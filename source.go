package datacell

import (
	"context"
	"fmt"
	"io"
)

// Source produces stream tuples in columnar form — the receptor side of
// the I/O surface, as Subscribe and Query.Tap are the emitter side.
// Implementations fill the batch they are handed (via its typed
// appenders), so every producer — csv files, synthetic generators, network
// feeds — funnels into the same zero-boxing ingest path. See
// internal/workload for the csv and generator sources.
type Source interface {
	// ReadBatch appends up to max rows to b and reports how many rows it
	// added. It returns io.EOF — possibly alongside a final non-empty
	// batch — when the source is exhausted. On any other error the batch
	// contents are undefined and are discarded by the caller.
	ReadBatch(b *Batch, max int) (int, error)
}

// attachBatchRows is the default per-AppendBatch row budget used by
// Attach: large enough to amortize per-batch costs, small enough to keep
// results flowing while a long source loads.
const attachBatchRows = 4096

// AttachOptions tune an Attach feed.
type AttachOptions struct {
	// BatchRows caps the rows handed to one AppendBatch (and thus sharing
	// one arrival timestamp). 0 means the 4096-row default.
	BatchRows int
	// AfterBatch, when non-nil, runs after every AppendBatch — e.g. a
	// synchronous Pump so results interleave with loading. An error aborts
	// the attach.
	AfterBatch func() error
}

// Attach drives a Source into a stream until the source is exhausted or
// ctx is cancelled, reusing one batch for the whole feed. It returns the
// number of rows ingested. Attach only appends; run the scheduler (Run),
// Pump, or an AfterBatch hook to make the subscribed queries fire.
func (db *DB) Attach(ctx context.Context, stream string, src Source, opts ...AttachOptions) (int64, error) {
	var o AttachOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.BatchRows <= 0 {
		o.BatchRows = attachBatchRows
	}
	b, err := db.NewBatch(stream)
	if err != nil {
		return 0, err
	}
	var total int64
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		n, rerr := src.ReadBatch(b, o.BatchRows)
		if rerr != nil && rerr != io.EOF {
			return total, fmt.Errorf("datacell: attach %s: %w", stream, rerr)
		}
		if n > 0 {
			if err := db.AppendBatch(stream, b); err != nil {
				return total, err
			}
			total += int64(n)
			b.Reset()
			if o.AfterBatch != nil {
				if err := o.AfterBatch(); err != nil {
					return total, err
				}
			}
		}
		if rerr == io.EOF {
			return total, nil
		}
	}
}
