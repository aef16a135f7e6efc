package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// phases are the lengths of one run's parts. The warm-up and the latency
// phase are open loop at the workload's fixed rate; the capacity phase is
// closed loop.
type phases struct {
	warm, latency, capacity time.Duration
	// Set-up is repeated and the median reported. Spawning a process is the
	// part of a run most exposed to the container's bursts of slowness
	// (a third slower for some tenths of a second), so the repetitions come
	// in three groups of setups each — before the warm-up, between the
	// timed phases, after them — and one burst cannot move the median. The
	// first coldSetups of the process are discarded: a binary the build has
	// just written starts slower.
	coldSetups, setups int
}

// phasesFor splits a run's measured seconds 2:1 between the latency and
// the capacity phase.
func phasesFor(seconds int) phases {
	total := time.Duration(seconds) * time.Second
	return phases{warm: time.Second, latency: total * 2 / 3, capacity: total / 3, coldSetups: 3, setups: 5}
}

// outcome is everything one run of one workload reports.
type outcome struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// fail counts n results that differ from what they should be.
func (o *outcome) fail(n int) {
	o.Failed += n
	o.Correct = o.Correct && n == 0
}

// timedRun is what the two timed phases record while the load runs; analyse
// turns it into metrics once the receivers have stopped.
type timedRun struct {
	latStart, latEnd, capEnd int     // slide index bounds of the two timed phases
	due, sent                []int64 // per latency-phase slide, session clock
	latEndNS                 int64   // latency phase over and drained
	latStartNS               int64
	capStartNS, capEndNS     int64 // capacity phase, to its last window
	cpu0, cpu1               float64
	rssMB, rssCapMB          float64   // child VmHWM after the latency / the capacity phase
	backlog                  int       // slides appended but unanswered when the open loop ended
	scr                      [3]scrape // before latency, between the phases, after capacity
}

// scrapeAt takes scrape number i of a traced run of a child.
func (t *timedRun) scrapeAt(ctx context.Context, c *child, traced bool, i int) error {
	if !traced || c == nil {
		return nil
	}
	var err error
	t.scr[i], err = c.scrape(ctx)
	return err
}

// latencyPhase drives a prefilled session through the warm-up and the
// open-loop phase, then lets the server drain. c is nil when the server is
// not a child process (then CPU and memory are not measured); scrapes are
// taken only when traced.
func (t *timedRun) latencyPhase(ctx context.Context, s *session, ph phases, c *child, traced bool) error {
	w := s.w
	s.openLoop(ctx, int(math.Round(w.rate*ph.warm.Seconds())), w.rate)

	if err := t.scrapeAt(ctx, c, traced, 0); err != nil {
		return err
	}
	if c != nil {
		var err error
		if t.cpu0, err = c.cpuSeconds(); err != nil {
			return err
		}
	}
	t.latStart, t.latStartNS = s.next, s.now()
	t.due, t.sent = s.openLoop(ctx, int(math.Round(w.rate*ph.latency.Seconds())), w.rate)
	t.latEnd = s.next
	t.backlog = s.next - s.minDone()
	if err := s.waitDone(ctx, s.next); err != nil {
		return err
	}
	t.latEndNS = s.now()
	if c != nil {
		var err error
		if t.rssMB, err = c.rssPeakMB(); err != nil {
			return err
		}
	}
	return t.scrapeAt(ctx, c, traced, 1)
}

// capacityPhase drives the session through the closed-loop phase.
func (t *timedRun) capacityPhase(ctx context.Context, s *session, ph phases, c *child, traced bool) error {
	t.capStartNS = s.now()
	stop := t.capStartNS + int64(ph.capacity)
	if err := s.closedLoop(ctx, func() bool { return s.now() < stop }); err != nil {
		return err
	}
	t.capEnd, t.capEndNS = s.next, s.now()
	if c != nil {
		var err error
		if t.cpu1, err = c.cpuSeconds(); err != nil {
			return err
		}
		if t.rssCapMB, err = c.rssPeakMB(); err != nil {
			return err
		}
	}
	return t.scrapeAt(ctx, c, traced, 2)
}

// subIntervals is the number of equal parts a phase is cut into to show
// how a metric moved within a run.
const subIntervals = 5

// cut returns the bounds of part g of [lo, hi) split into subIntervals.
func cut(lo, hi, g int) (int, int) {
	n := hi - lo
	return lo + n*g/subIntervals, lo + n*(g+1)/subIntervals
}

// analyse computes the end-to-end metrics and the failure counts. Call it
// after s.close(): it reads the receive logs.
func analyse(s *session, t *timedRun, out *outcome) {
	w := s.w
	limit := float64(latencyLimitMS) * 1000 // µs
	var missing, late, bad int

	// Latency: due time → received, per (query, window) of the open loop.
	all := make([]float64, 0, (t.latEnd-t.latStart)*len(s.recv))
	p50sub := make([]float64, subIntervals)
	p99sub := make([]float64, subIntervals)
	for g := 0; g < subIntervals; g++ {
		lo, hi := cut(t.latStart, t.latEnd, g)
		part := make([]float64, 0, (hi-lo)*len(s.recv))
		for _, q := range s.recv {
			for i := lo; i < hi; i++ {
				at, ok := q.answer(i)
				if !ok {
					missing++
					continue
				}
				us := float64(at-t.due[i-t.latStart]) / 1e3
				if us > limit {
					late++
				}
				part = append(part, us)
			}
		}
		sort.Float64s(part)
		p50sub[g], _ = percentile(part, 50)
		p99sub[g], _ = percentile(part, 99)
		all = append(all, part...)
	}
	sort.Float64s(all)
	p50, _ := percentile(all, 50)
	p99, _ := percentile(all, 99)
	out.Metrics.put(endToEnd, "latency_p50_us", p50, len(all), p50sub...)
	out.Metrics.put(perLayer, "latency_p99_us", p99, len(all), p99sub...)

	// Capacity: tuples appended ÷ wall time to the last window received.
	capSlides := t.capEnd - t.latEnd
	for _, q := range s.recv {
		for i := t.latEnd; i < t.capEnd; i++ {
			if _, ok := q.answer(i); !ok {
				missing++
			}
		}
	}
	capSub := make([]float64, subIntervals)
	from := t.capStartNS
	for g := 0; g < subIntervals; g++ {
		lo, hi := cut(t.latEnd, t.capEnd, g)
		if hi == lo {
			continue
		}
		to := s.lastReceive(hi - 1)
		if to > from {
			capSub[g] = float64((hi-lo)*w.tuplesPerSlide()) / (float64(to-from) / 1e9)
		}
		from = to
	}
	if wall := float64(from-t.capStartNS) / 1e9; wall > 0 {
		out.Metrics.put(endToEnd, "capacity_tuples_s", float64(capSlides*w.tuplesPerSlide())/wall, capSlides, capSub...)
	}

	tuples := float64((t.capEnd - t.latStart) * w.tuplesPerSlide())
	if t.cpu1 > t.cpu0 {
		out.Metrics.put(endToEnd, "cpu_us_per_tuple", (t.cpu1-t.cpu0)*1e6/tuples, t.capEnd-t.latStart)
	}
	if t.rssMB > 0 {
		out.Metrics.put(endToEnd, "rss_peak_mb", t.rssMB, 1)
		out.Metrics.put(perLayer, "rss_peak_capacity_mb", t.rssCapMB, 1)
	}

	// Correctness: the oracle recomputes windows spread over the timed
	// slides; sequence errors were counted on receipt.
	mismatch := 0
	for qi, q := range s.recv {
		bad += q.bad
		first := t.latStart - q.first + 2 // window (1-based) completed by slide latStart
		last := len(q.at)
		if hi := t.capEnd - q.first + 1; hi < last {
			last = hi
		}
		for _, win := range checkWindows(first, last, oracleWindows) {
			if q.at[win-1] >= 0 && oracleChecksum(w, &w.queries[qi], s.seed, win) != q.sum[win-1] {
				mismatch++
			}
		}
	}

	slides := t.capEnd - t.latStart
	out.Attempted += slides*len(w.streams) + slides*len(s.recv)
	out.Correct = true
	out.fail(missing + bad + mismatch)
	out.Failed += s.appendErrs + late
	if out.Failed > 0 {
		fmt.Printf("  failed operations: %d results missing, %d out of sequence, %d differ from the oracle, %d late, %d appends refused\n",
			missing, bad, mismatch, late, s.appendErrs)
	}
}

// oracleWindows is how many windows per query the oracle recomputes.
const oracleWindows = 32

// runner holds what every run of the process shares.
type runner struct {
	j      *janitor
	bin    string    // the datacelld binary
	outDir string    // where trace files go
	log    io.Writer // human-readable progress
}

// setUp spawns a child, connects, registers and prefills until every
// query has emitted its first window. It returns the seconds from spawn to
// that point.
func (r *runner) setUp(ctx context.Context, w *workload, seed uint64) (c *child, s *session, dataDir string, seconds float64, err error) {
	if w.durable {
		if dataDir, err = r.j.tempDir("data-*"); err != nil {
			return nil, nil, "", 0, err
		}
	}
	if c, err = r.j.startChild(r.bin, dataDir); err != nil {
		return nil, nil, "", 0, err
	}
	if s, err = openSession(ctx, w, seed, c.addr, true); err != nil {
		c.kill()
		return nil, nil, "", 0, err
	}
	if err = s.closedLoopN(ctx, w.prefill()); err != nil {
		s.close()
		c.kill()
		return nil, nil, "", 0, fmt.Errorf("prefill: %w", err)
	}
	return c, s, dataDir, time.Since(c.spawned).Seconds(), nil
}

// tearDown ends a set-up's session, child and data directory.
func (r *runner) tearDown(c *child, s *session, dataDir string) {
	s.close()
	c.kill()
	if dataDir != "" {
		r.j.removeDir(dataDir)
	}
}

// run measures one workload once. Untraced, it reports the end-to-end
// metrics; traced, it scrapes the child, runs the recovery phase and the
// traced replay, and reports the per-layer metrics.
func (r *runner) run(ctx context.Context, w *workload, seed uint64, ph phases, traced bool) (*outcome, error) {
	out := &outcome{Workload: w.name, Seed: seed, Metrics: metricSet{}}

	// spare sets up and throws away n children, returning the times.
	spare := func(n int) ([]float64, error) {
		if traced {
			return nil, nil // set-up time is an end-to-end metric
		}
		took := make([]float64, n)
		for i := range took {
			c, s, dataDir, sec, err := r.setUp(ctx, w, seed)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			r.tearDown(c, s, dataDir)
			took[i] = sec
		}
		return took, nil
	}
	if _, err := spare(ph.coldSetups); err != nil {
		return nil, err
	}
	took, err := spare(ph.setups - 1)
	if err != nil {
		return nil, err
	}
	c, s, dataDir, sec, err := r.setUp(ctx, w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { r.tearDown(c, s, dataDir) }()
	took = append(took, sec)

	if traced {
		rtt, err := pingRTT(s, 1000)
		if err != nil {
			return nil, err
		}
		out.Metrics.put(perLayer, "serve.wire_rtt_us", rtt, 1000)
	}

	t := &timedRun{}
	if err := t.latencyPhase(ctx, s, ph, c, traced); err != nil {
		return nil, fmt.Errorf("latency phase: %w", err)
	}
	between, err := spare(ph.setups) // the measured child idles meanwhile
	if err != nil {
		return nil, err
	}
	if err := t.capacityPhase(ctx, s, ph, c, traced); err != nil {
		return nil, fmt.Errorf("capacity phase: %w", err)
	}
	r.tearDown(c, s, dataDir) // the receive logs are complete once the receivers have stopped
	after, err := spare(ph.setups)
	if err != nil {
		return nil, err
	}
	took = append(append(took, between...), after...)
	out.Metrics.put(endToEnd, "setup_s", median(took), len(took))
	analyse(s, t, out)

	if !traced {
		return out, nil
	}
	late := make([]float64, len(t.sent))
	for i := range late {
		late[i] = float64(t.sent[i]-t.due[i]) / 1e3
	}
	sort.Float64s(late)
	lateP99, _ := percentile(late, 99)
	out.Metrics.put(perLayer, "gen.late_p99_us", lateP99, len(late))
	out.Metrics.put(perLayer, "gen.backlog_slides_end", float64(t.backlog), 1)
	scrapedMetrics(t, out)

	tr := newTracer(w.name)
	if w.durable {
		if err := r.recovery(ctx, tr, w, seed, out); err != nil {
			return nil, fmt.Errorf("recovery phase: %w", err)
		}
	}
	if err := r.tracedReplay(tr, w, seed, ph, s, t, out); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	return out, nil
}

// pingRTT is the median round trip of n no-op frames, in µs.
func pingRTT(s *session, n int) (float64, error) {
	rtts := make([]float64, n)
	for i := range rtts {
		t0 := time.Now()
		if err := s.feeder.Ping(); err != nil {
			return 0, fmt.Errorf("ping: %w", err)
		}
		rtts[i] = float64(time.Since(t0)) / 1e3
	}
	return median(rtts), nil
}

// scrapedMetrics turns the three /metrics reads into per-layer metrics:
// counts over both timed phases, busy shares per phase.
func scrapedMetrics(t *timedRun, out *outcome) {
	a, b, c := t.scr[0], t.scr[1], t.scr[2]
	if a == nil || b == nil || c == nil {
		return
	}
	slides := float64(t.capEnd - t.latStart)
	delta := func(lo, hi scrape, prefix string, labels ...string) float64 {
		return hi.sum(prefix, labels...) - lo.sum(prefix, labels...)
	}
	m := out.Metrics
	n := int(slides)
	m.put(perLayer, "serve.encodes_window", delta(a, c, "datacell_serve_result_encodes_total")/slides, n)
	m.put(perLayer, "serve.bytes_out_window", delta(a, c, "datacell_serve_bytes_written_total")/slides, n)
	dropped := delta(a, c, "datacell_serve_result_frames_dropped_total") +
		delta(a, c, "datacell_query_results_total", `outcome="dropped"`)
	m.put(perLayer, "serve.frames_dropped", dropped, n)
	out.Failed += int(dropped)
	m.put(perLayer, "basket.resident_mb", c.sum("datacell_stream_resident_bytes")/1e6, 1)
	m.put(perLayer, "basket.evictions", delta(a, c, "datacell_stream_segment_evictions_total"), n)
	m.put(perLayer, "basket.fetches", delta(a, c, "datacell_stream_segment_fetches_total"), n)

	const stage = "datacell_query_stage_seconds_total"
	busy := func(lo, hi scrape, wallNS int64, suffix string, all bool) {
		wall := float64(wallNS) / 1e9
		if wall <= 0 {
			return
		}
		join := delta(lo, hi, stage, `stage="join"`)
		m.put(perLayer, "engine.busy_total"+suffix, delta(lo, hi, stage, `stage="total"`)/wall, 1)
		m.put(perLayer, "engine.busy_ingest"+suffix, delta(lo, hi, "datacell_ingest_seconds_total")/wall, 1)
		if !all {
			return
		}
		m.put(perLayer, "engine.busy_fragment", (delta(lo, hi, stage, `stage="fragment"`)-join)/wall, 1)
		m.put(perLayer, "engine.busy_join", join/wall, 1)
		merge := delta(lo, hi, stage, `stage="merge"`) + delta(lo, hi, stage, `stage="scatter"`) +
			delta(lo, hi, stage, `stage="partition"`) + delta(lo, hi, stage, `stage="stitch"`)
		m.put(perLayer, "engine.busy_merge", merge/wall, 1)
		m.put(perLayer, "engine.busy_shared", delta(lo, hi, stage, `stage="shared"`)/wall, 1)
	}
	busy(a, b, t.latEndNS-t.latStartNS, "_lat", false)
	busy(b, c, t.capEndNS-t.capStartNS, "", true)
}

// onPath are the spans a slide's data actually crosses; the side spans
// (stand-alone basket and storage, the durable twin) are not among them.
var onPath = []string{
	"serve.encode_append", "serve.decode_append", "datacell.append", "engine.pump",
	"serve.encode_result", "serve.decode_result",
}

// tracedReplay runs the in-process replay over the slides the end-to-end
// run covered, checks its results against that run's, writes the spans and
// derives the traced per-layer metrics.
func (r *runner) tracedReplay(tr *tracer, w *workload, seed uint64, ph phases, s *session, t *timedRun, out *outcome) error {
	scratch, err := r.j.tempDir("replay-*")
	if err != nil {
		return err
	}
	defer r.j.removeDir(scratch)
	slides := 2000
	if t.capEnd < slides {
		slides = t.capEnd
	}
	st, err := replay(tr, w, seed, slides, (ph.latency+ph.capacity)/2, scratch, s.seen)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	if err := tr.writeTo(filepath.Join(r.outDir, "trace_"+w.name+".json")); err != nil {
		return err
	}
	out.Attempted += st.compared
	out.fail(st.mismatch)
	if st.slides == 0 {
		return fmt.Errorf("replay covered no slide")
	}

	lt := layerTotals(tr.spans)
	get := func(name string) layerTotal {
		if t := lt[name]; t != nil {
			return *t
		}
		return layerTotal{}
	}
	m := out.Metrics
	perCall := func(metric, spanName string, div float64) {
		if t := get(spanName); t.calls > 0 {
			m.put(perLayer, metric, float64(t.ns)/float64(t.calls)/div, t.calls)
		}
	}
	perRow := func(metric, spanName string) {
		if t := get(spanName); t.calls > 0 {
			m.put(perLayer, metric, float64(t.ns)/float64(t.calls*w.slideRows), t.calls)
		}
	}
	perSlide := func(metric string, ns int64) {
		m.put(perLayer, metric, float64(ns)/float64(st.slides)/1e3, st.slides)
	}
	perCall("sql.parse_us_stmt", "sql.parse", 1e3)
	perCall("datacell.register_us_query", "datacell.register", 1e3)
	perRow("serve.append_encode_ns_row", "serve.encode_append")
	perRow("serve.append_decode_ns_row", "serve.decode_append")
	perCall("serve.result_encode_us_window", "serve.encode_result", 1e3)
	perCall("serve.result_decode_us_window", "serve.decode_result", 1e3)
	perRow("datacell.append_batch_ns_row", "datacell.append")
	perRow("datacell.append_batch_durable_ns_row", "datacell.append_durable")
	perRow("basket.append_ns_row", "basket.append")
	perRow("storage.append_chunk_ns_row", "storage.append_chunk")
	perCall("storage.seal_us_segment", "storage.seal", 1e3)
	perSlide("engine.pump_us_slide", get("engine.pump").ns)
	perSlide("engine.pump_self_us_slide", get("engine.pump").self)
	perSlide("core.fragment_us_slide", get("core.fragment").ns)
	perSlide("core.join_us_slide", get("core.join").ns)
	perSlide("core.merge_us_slide", get("core.merge").ns)
	perSlide("engine.shared_wait_us_slide", get("engine.shared_wait").ns)
	perSlide("harness.self_us_slide", get("slide").self)

	ratio := func(metric string, adopted, led int64) {
		if adopted+led > 0 {
			m.put(perLayer, metric, float64(adopted)/float64(adopted+led), int(adopted+led))
		}
	}
	ratio("engine.share_ratio", st.stage.adopted, st.stage.led)
	ratio("engine.tail_share_ratio", st.stage.tailsAdopted, st.stage.tailsLed)
	m.put(perLayer, "core.builds_reused_slide", float64(st.stage.buildsReused)/float64(st.slides), st.slides)
	m.put(perLayer, "engine.allocs_slide", float64(st.allocs)/float64(st.slides), st.slides)
	m.put(perLayer, "engine.alloc_kb_slide", float64(st.allocBytes)/1024/float64(st.slides), st.slides)

	var pathNS int64
	for _, name := range onPath {
		pathNS += get(name).ns
	}
	if pathNS > 0 {
		m.put(perLayer, "trace.serial_tuples_s", float64(st.rows)/(float64(pathNS)/1e9), st.slides)
		if capacity := m["capacity_tuples_s"].Value; capacity > 0 {
			// Share of the end-to-end service time of one slide (at
			// capacity) that the layers' spans account for.
			perSlideE2E := float64(w.tuplesPerSlide()) / capacity * 1e9
			m.put(perLayer, "trace.coverage", float64(pathNS)/float64(st.slides)/perSlideE2E, st.slides)
		}
	}
	fmt.Fprintf(r.log, "  replay: %d slides, %d windows, %d compared with the end-to-end run, %d differ\n",
		st.slides, st.windows, st.compared, st.mismatch)
	return nil
}
