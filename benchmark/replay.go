package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"datacell"
	"datacell/internal/basket"
	"datacell/internal/catalog"
	"datacell/internal/serve"
	"datacell/internal/sql"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

// The traced replay pushes the generated input of one workload through
// each layer's public functions, serially and in this process, with a span
// around each call. It is outside-in: nothing inside the program is
// instrumented, so what the layers' spans do not cover shows up as the
// root span's self time.

// sealRows mirrors the segment log's default seal threshold, so the
// stand-alone storage log seals as often as the engine's would.
const sealRows = 8192

// replayStats is what the replay measured besides its spans.
type replayStats struct {
	slides, rows       int
	windows            int   // results produced
	compared, mismatch int   // windows also seen end to end / differing from them
	allocs, allocBytes int64 // runtime.MemStats deltas around DB.Pump
	stage              stageSums
}

// stageSums adds the per-query counters the engine keeps.
type stageSums struct {
	fragment, join, merge, shared        time.Duration
	adopted, led, tailsAdopted, tailsLed int64
	buildsReused                         int64
}

func sumStages(qs []*datacell.Query) stageSums {
	var s stageSums
	for _, q := range qs {
		st := q.Stats()
		s.fragment += st.Fragment - st.Join // Join is a share of Fragment
		s.join += st.Join
		s.merge += st.Merge + st.Scatter + st.Partition + st.Stitch
		s.shared += st.Shared
		s.adopted += st.AdoptedSlides
		s.led += st.LedSlides
		s.tailsAdopted += st.AdoptedTails
		s.tailsLed += st.LedTails
		s.buildsReused += st.BuildsReused
	}
	return s
}

func (a stageSums) minus(b stageSums) stageSums {
	return stageSums{
		fragment: a.fragment - b.fragment, join: a.join - b.join, merge: a.merge - b.merge, shared: a.shared - b.shared,
		adopted: a.adopted - b.adopted, led: a.led - b.led,
		tailsAdopted: a.tailsAdopted - b.tailsAdopted, tailsLed: a.tailsLed - b.tailsLed,
		buildsReused: a.buildsReused - b.buildsReused,
	}
}

var kvSchema = catalog.NewSchema(
	catalog.Column{Name: "k", Type: vector.Int64},
	catalog.Column{Name: "v", Type: vector.Int64},
)

// newWorkloadDB declares the workload's streams on db and registers its
// statements, with a span under parent around each parse and registration.
func newWorkloadDB(db *datacell.DB, w *workload, tr *tracer, parent int) ([]*datacell.Query, error) {
	for _, s := range w.streams {
		if err := db.RegisterStream(s, datacell.Col("k", datacell.Int64), datacell.Col("v", datacell.Int64)); err != nil {
			return nil, err
		}
	}
	qs := make([]*datacell.Query, len(w.queries))
	for i := range w.queries {
		stmt := w.queries[i].sql
		err := tr.span(parent, "sql.parse", -1, func() error {
			_, err := sql.Parse(stmt)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = tr.span(parent, "datacell.register", -1, func() (err error) {
			qs[i], err = db.Register(stmt, datacell.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("register %q: %w", stmt, err)
		}
	}
	return qs, nil
}

// fillBatch copies a decoded block into a Batch the way the server's append
// path does: typed bulk appends, no per-value boxing.
func fillBatch(db *datacell.DB, stream string, blk *serve.Block) (*datacell.Batch, error) {
	b, err := db.NewBatch(stream)
	if err != nil {
		return nil, err
	}
	b.Int64Col("k").AppendSlice(blk.Cols[0].Int64s())
	b.Int64Col("v").AppendSlice(blk.Cols[1].Int64s())
	return b, nil
}

// durableSide is the stand-alone storage log and the durable twin DB that
// take the same columns as the replay's memory DB on a durable workload.
type durableSide struct {
	log     *storage.StreamLog
	base    int64 // first row of the log's open segment
	rows    int   // rows in it
	db      *datacell.DB
	queries []*datacell.Query
	close   func()
}

func openDurableSide(w *workload, scratch string) (*durableSide, error) {
	dir, err := storage.OpenDir(filepath.Join(scratch, "log"))
	if err != nil {
		return nil, err
	}
	d := &durableSide{}
	if d.log, err = dir.Stream("s", kvSchema); err == nil {
		d.db, err = datacell.OpenConfig(filepath.Join(scratch, "db"), datacell.StoreConfig{RAMBudget: ramBudget})
	}
	if err != nil {
		dir.Close()
		return nil, err
	}
	d.close = func() {
		d.db.Close()
		dir.Close()
	}
	if d.queries, err = newWorkloadDB(d.db, w, newTracer(w.name), 0); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// append feeds one decoded slide to the log (sealing as often as the engine
// would) and to the twin, each under its own span.
func (d *durableSide) append(tr *tracer, root, slide int, stream string, blk *serve.Block, ts []int64) error {
	err := tr.span(root, "storage.append_chunk", slide, func() error {
		return d.log.AppendChunk(d.base, blk.Cols, ts)
	})
	if err != nil {
		return err
	}
	if d.rows += len(ts); d.rows >= sealRows {
		if err := tr.span(root, "storage.seal", slide, func() error { return d.log.Seal(d.base, d.rows) }); err != nil {
			return err
		}
		d.base, d.rows = d.base+int64(d.rows), 0
	}
	batch, err := fillBatch(d.db, stream, blk)
	if err != nil {
		return err
	}
	if err := tr.span(root, "datacell.append_durable", slide, func() error { return d.db.AppendBatch(stream, batch) }); err != nil {
		return err
	}
	// Keep the twin's cursors moving so its log evicts and reclaims like
	// the live one; its results are not used.
	return tr.span(root, "harness.twin_pump", slide, func() error {
		_, err := d.db.Pump()
		for _, q := range d.queries {
			q.Results()
		}
		return err
	})
}

// replay runs the traced replay of the first slides slides of (w, seed),
// stopping early once budget has passed. scratch is an empty directory for
// the durable side instances. seen returns the checksum the end-to-end run
// received for a window, if it received one.
func replay(tr *tracer, w *workload, seed uint64, slides int, budget time.Duration, scratch string,
	seen func(query, window int) (uint64, bool)) (replayStats, error) {
	var st replayStats

	setup := tr.begin(0, "setup", -1)
	db := datacell.New()
	queries, err := newWorkloadDB(db, w, tr, setup)
	tr.end(setup)
	if err != nil {
		return st, err
	}

	// Side instances: each takes the same columns as the DB, alone, so its
	// span holds that layer's cost and nothing else.
	side := basket.New("side", kvSchema)
	var durable *durableSide
	if w.durable {
		if durable, err = openDurableSide(w, scratch); err != nil {
			return st, err
		}
		defer durable.close()
	}

	bufs := make([]*slideBuf, len(w.streams))
	for j := range bufs {
		bufs[j] = newSlideBuf(w.slideRows)
	}
	ts := make([]int64, w.slideRows)
	var frame, resultBuf []byte
	var m0, m1 runtime.MemStats
	began := time.Now()

	for i := 0; i < slides && time.Since(began) < budget; i++ {
		root := tr.begin(0, "slide", i)
		for r := range ts {
			ts[r] = int64(i + 1)
		}
		for j, stream := range w.streams {
			cols := bufs[j].fill(seed, j, i, w.keys)
			tr.span(root, "serve.encode_append", i, func() error {
				frame = serve.AppendVectors(frame[:0], nil, cols)
				return nil
			})
			var blk *serve.Block
			var batch *datacell.Batch
			err := tr.span(root, "serve.decode_append", i, func() (err error) {
				if blk, err = serve.DecodeBlock(frame); err == nil {
					batch, err = fillBatch(db, stream, blk)
				}
				return err
			})
			if err != nil {
				return st, err
			}
			if err := tr.span(root, "datacell.append", i, func() error { return db.AppendBatch(stream, batch) }); err != nil {
				return st, err
			}
			err = tr.span(root, "basket.append", i, func() error {
				side.Lock()
				defer side.Unlock()
				return side.AppendColumnsLocked(blk.Cols, ts)
			})
			if err != nil {
				return st, err
			}
			if durable != nil {
				if err := durable.append(tr, root, i, stream, blk, ts); err != nil {
					return st, err
				}
			}
		}

		before := sumStages(queries)
		runtime.ReadMemStats(&m0)
		pump := tr.begin(root, "engine.pump", i)
		_, err := db.Pump()
		tr.end(pump)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return st, err
		}
		d := sumStages(queries).minus(before)
		st.allocs += int64(m1.Mallocs - m0.Mallocs)
		st.allocBytes += int64(m1.TotalAlloc - m0.TotalAlloc)
		// The stage clocks run inside the pump; lay them end to end from its
		// start so self-time arithmetic sees them as its children.
		at := tr.spans[pump-1].Start
		for _, stage := range []struct {
			name string
			d    time.Duration
		}{
			{"core.fragment", d.fragment}, {"core.join", d.join},
			{"core.merge", d.merge}, {"engine.shared_wait", d.shared},
		} {
			if stage.d > 0 {
				tr.add(pump, stage.name, i, at, at+int64(stage.d))
				at += int64(stage.d)
			}
		}

		for qi, q := range queries {
			for _, r := range q.Results() {
				tr.span(root, "serve.encode_result", i, func() error {
					resultBuf = serve.AppendTable(resultBuf[:0], r.Table)
					return nil
				})
				var blk *serve.Block
				err := tr.span(root, "serve.decode_result", i, func() (err error) {
					blk, err = serve.DecodeBlock(resultBuf)
					return err
				})
				if err != nil {
					return st, err
				}
				tr.span(root, "harness.check", i, func() error {
					sum, ok := tableChecksum(blk.Table())
					if want, have := seen(qi, r.Window); have {
						st.compared++
						if !ok || sum != want {
							st.mismatch++
						}
					}
					return nil
				})
				st.windows++
			}
		}
		tr.end(root)
		st.slides++
		st.rows += w.tuplesPerSlide()
	}
	st.stage = sumStages(queries)
	return st, nil
}
