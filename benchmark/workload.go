package main

import "fmt"

// shape is the statement form the oracle knows how to recompute.
type shape int

const (
	// shapeGrouped: SELECT k, sum(v), count(*) ... [WHERE v >= a] GROUP BY k
	// HAVING count(*) > h.
	shapeGrouped shape = iota
	// shapeJoin: SELECT count(*), sum(s1.v) FROM s1, s2 WHERE s1.k = s2.k
	// AND s1.v < a.
	shapeJoin
	// shapeScalar: SELECT count(*), sum(v) FROM s.
	shapeScalar
)

// query is one standing statement plus what the oracle needs to know of it.
type query struct {
	sql   string
	shape shape
	rng   int   // RANGE in rows
	a, h  int64 // filter constant and HAVING threshold (0 where unused)
}

// workload is one frozen traffic mix. Nothing here is adapted at run time:
// the rates were set to about half the capacity measured on the 2-vCPU
// container and are part of the benchmark's definition (see README.md).
type workload struct {
	name      string
	streams   []string // "s", or "s1","s2" (a slide is one append to each, in order)
	slideRows int      // rows per append = SLIDE
	keys      int64    // k is uniform over [0, keys)
	queries   []query
	rate      float64 // open-loop slides per second
	durable   bool    // child runs with -data and -ram-budget
}

// ramBudget is the -ram-budget of the durable child: small enough that the
// stream's sealed segments are evicted to disk during the timed phases.
const ramBudget = 8 << 20

// recoverSlides is how many slides the recovery phase ingests before the
// kill (× 4096 rows on durable_recover = 4 194 304 rows).
const recoverSlides = 1024

// latencyLimit is the longest a window may take from its slide's due time
// before it counts as a failed operation.
const latencyLimitMS = 250

// slidesToFirst is how many slides must be appended before q emits window 1.
func (w *workload) slidesToFirst(q *query) int { return q.rng / w.slideRows }

// prefill is the number of slides after which every query has emitted.
func (w *workload) prefill() int {
	n := 0
	for i := range w.queries {
		if s := w.slidesToFirst(&w.queries[i]); s > n {
			n = s
		}
	}
	return n
}

// ddl returns the CREATE STREAM statements.
func (w *workload) ddl() []string {
	out := make([]string, len(w.streams))
	for i, s := range w.streams {
		out[i] = fmt.Sprintf("CREATE STREAM %s (k BIGINT, v BIGINT)", s)
	}
	return out
}

// tuplesPerSlide counts rows over all streams of one slide.
func (w *workload) tuplesPerSlide() int { return w.slideRows * len(w.streams) }

func workloads() []*workload {
	fan := &workload{
		name:      "agg_fanout",
		streams:   []string{"s"},
		slideRows: 256,
		keys:      64,
		rate:      375,
	}
	for _, a := range []int64{0, 100, 200, 300} {
		for _, r := range []int{1024, 2048, 4096, 8192} {
			for _, h := range []int64{0, 1, 2, 3} {
				fan.queries = append(fan.queries, query{
					sql: fmt.Sprintf("SELECT k, sum(v), count(*) FROM s [RANGE %d SLIDE 256] WHERE v >= %d GROUP BY k HAVING count(*) > %d",
						r, a, h),
					shape: shapeGrouped, rng: r, a: a, h: h,
				})
			}
		}
	}
	return []*workload{
		fan,
		{
			name:      "merge_wide",
			streams:   []string{"s"},
			slideRows: 2048,
			keys:      65536,
			rate:      180,
			queries: []query{{
				sql:   "SELECT k, sum(v), count(*) FROM s [RANGE 65536 SLIDE 2048] GROUP BY k HAVING count(*) > 4",
				shape: shapeGrouped, rng: 65536, h: 4,
			}},
		},
		{
			name:      "join_pair",
			streams:   []string{"s1", "s2"},
			slideRows: 512,
			keys:      4096,
			rate:      700,
			queries: []query{{
				sql:   "SELECT count(*), sum(s1.v) FROM s1 [RANGE 16384 SLIDE 512], s2 [RANGE 16384 SLIDE 512] WHERE s1.k = s2.k AND s1.v < 250",
				shape: shapeJoin, rng: 16384, a: 250,
			}},
		},
		{
			name:      "durable_recover",
			streams:   []string{"s"},
			slideRows: 4096,
			keys:      65536,
			rate:      320,
			durable:   true,
			queries: []query{{
				sql:   "SELECT count(*), sum(v) FROM s [RANGE 65536 SLIDE 4096]",
				shape: shapeScalar, rng: 65536,
			}},
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
