package serve

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
)

// MetricsHandler returns an HTTP handler exporting the engine's runtime
// statistics and the server's wire counters in the Prometheus text
// exposition format. One scrape walks the shared-query registry sorted by
// ID, so output order is stable across scrapes.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		s.writeMetrics(&sb)
		w.Write([]byte(sb.String()))
	})
}

// writeMetrics renders one scrape.
func (s *Server) writeMetrics(sb *strings.Builder) {
	st := s.Stats()
	fmt.Fprintf(sb, "# HELP datacell_ingest_seconds_total Cumulative receptor-side load time.\n")
	fmt.Fprintf(sb, "# TYPE datacell_ingest_seconds_total counter\n")
	fmt.Fprintf(sb, "datacell_ingest_seconds_total %g\n", s.db.IngestDuration().Seconds())

	fmt.Fprintf(sb, "# TYPE datacell_serve_connections gauge\n")
	fmt.Fprintf(sb, "datacell_serve_connections %d\n", st.Conns)
	fmt.Fprintf(sb, "# TYPE datacell_serve_subscriptions gauge\n")
	fmt.Fprintf(sb, "datacell_serve_subscriptions %d\n", st.Subscriptions)
	fmt.Fprintf(sb, "# TYPE datacell_serve_shared_queries gauge\n")
	fmt.Fprintf(sb, "datacell_serve_shared_queries %d\n", st.SharedQueries)
	fmt.Fprintf(sb, "# TYPE datacell_serve_accepted_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_accepted_total %d\n", st.Accepted)
	fmt.Fprintf(sb, "# TYPE datacell_serve_disconnects_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_disconnects_total %d\n", st.Disconnects)
	fmt.Fprintf(sb, "# HELP datacell_serve_disconnects_by_class_total Connections ended, by why: the peer went away (read), the socket failed (write), a slow client was evicted (policy), shutdown (drain), or a bad hello or frame (handshake, dispatch).\n")
	fmt.Fprintf(sb, "# TYPE datacell_serve_disconnects_by_class_total counter\n")
	for _, class := range []string{"read", "write", "policy", "drain", "handshake", "dispatch"} {
		fmt.Fprintf(sb, "datacell_serve_disconnects_by_class_total{class=%q} %d\n", class, st.DisconnectsBy[class])
	}
	fmt.Fprintf(sb, "# HELP datacell_serve_result_encodes_total Window results serialized (one per window per statement, shared by all its subscribers).\n")
	fmt.Fprintf(sb, "# TYPE datacell_serve_result_encodes_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_result_encodes_total %d\n", st.Encodes)
	fmt.Fprintf(sb, "# TYPE datacell_serve_result_frames_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_result_frames_total %d\n", st.ResultFrames)
	fmt.Fprintf(sb, "# HELP datacell_serve_result_frames_dropped_total Result frames a DropOldest subscription skipped (in-process drops count under datacell_query_results_total).\n")
	fmt.Fprintf(sb, "# TYPE datacell_serve_result_frames_dropped_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_result_frames_dropped_total %d\n", st.DroppedFrames)
	fmt.Fprintf(sb, "# HELP datacell_serve_socket_writes_total Write calls on client sockets: one per reply, one per batch of result frames; result_frames_total over this is the frames a write carries.\n")
	fmt.Fprintf(sb, "# TYPE datacell_serve_socket_writes_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_socket_writes_total %d\n", st.SocketWrites)
	fmt.Fprintf(sb, "# TYPE datacell_serve_bytes_written_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_bytes_written_total %d\n", st.BytesOut)
	fmt.Fprintf(sb, "# TYPE datacell_serve_append_rows_total counter\n")
	fmt.Fprintf(sb, "datacell_serve_append_rows_total %d\n", st.AppendRows)

	// Go runtime work counters, read once per scrape: what the process
	// allocated and how often it collected, whatever the clock says.
	goStats := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(goStats)
	for i, m := range []struct{ name, help string }{
		{"datacell_go_alloc_bytes_total", "Bytes allocated on the Go heap."},
		{"datacell_go_alloc_objects_total", "Objects allocated on the Go heap."},
		{"datacell_go_gc_cycles_total", "Completed Go garbage-collection cycles."},
	} {
		var v uint64
		if goStats[i].Value.Kind() == metrics.KindUint64 {
			v = goStats[i].Value.Uint64()
		}
		fmt.Fprintf(sb, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(sb, "# TYPE %s counter\n", m.name)
		fmt.Fprintf(sb, "%s %d\n", m.name, v)
	}

	// Storage tier: per-stream segment residency (durable instances only
	// report Durable=true; memory instances still export the counters so
	// dashboards need not branch).
	storage := s.db.StorageByStream()
	streams := make([]string, 0, len(storage))
	for name := range storage {
		streams = append(streams, name)
	}
	sort.Strings(streams)
	fmt.Fprintf(sb, "# HELP datacell_stream_segments Segments in the stream's log (resident or spilled).\n")
	for _, name := range streams {
		ss := storage[name]
		durable := 0
		if ss.Durable {
			durable = 1
		}
		fmt.Fprintf(sb, "datacell_stream_durable{stream=%q} %d\n", name, durable)
		fmt.Fprintf(sb, "datacell_stream_segments{stream=%q,residency=\"resident\"} %d\n", name, ss.Segments-ss.Cold)
		fmt.Fprintf(sb, "datacell_stream_segments{stream=%q,residency=\"spilled\"} %d\n", name, ss.Cold)
		fmt.Fprintf(sb, "datacell_stream_segment_files{stream=%q} %d\n", name, ss.Files)
		fmt.Fprintf(sb, "datacell_stream_resident_bytes{stream=%q} %d\n", name, ss.ResidentBytes)
		fmt.Fprintf(sb, "datacell_stream_segment_fetches_total{stream=%q} %d\n", name, ss.Fetches)
		fmt.Fprintf(sb, "datacell_stream_segment_evictions_total{stream=%q} %d\n", name, ss.Evictions)
	}

	fmt.Fprintf(sb, "# HELP datacell_query_result_backlog Windows between the query's slowest result-log cursor and the newest.\n")
	fmt.Fprintf(sb, "# HELP datacell_query_stage_seconds_total Cumulative per-stage step time (the query stage clock).\n")
	for _, ss := range s.sharedList() {
		qs := ss.query.Stats()
		id := ss.id
		fp := ss.fp
		if fp == "" {
			fp = "none"
		}
		fmt.Fprintf(sb, "datacell_query_info{query=%q,mode=%q,fingerprint=%q} 1\n", id, ss.query.Mode().String(), fp)
		fmt.Fprintf(sb, "datacell_query_subscribers{query=%q} %d\n", id, ss.subscribers())
		fmt.Fprintf(sb, "datacell_query_windows_total{query=%q} %d\n", id, qs.Windows)
		fmt.Fprintf(sb, "datacell_query_result_backlog{query=%q} %d\n", id, qs.Backlog)
		for _, stage := range []struct {
			name string
			sec  float64
		}{
			{"fragment", qs.Fragment.Seconds()},
			{"merge", qs.Merge.Seconds()},
			{"join", qs.Join.Seconds()},
			{"total", qs.Total.Seconds()},
		} {
			fmt.Fprintf(sb, "datacell_query_stage_seconds_total{query=%q,stage=%q} %g\n", id, stage.name, stage.sec)
		}
		fmt.Fprintf(sb, "datacell_query_join_builds_reused_total{query=%q} %d\n", id, qs.BuildsReused)
		fmt.Fprintf(sb, "datacell_query_join_probes_total{query=%q} %d\n", id, qs.JoinProbes)
		fmt.Fprintf(sb, "datacell_query_join_hits_total{query=%q} %d\n", id, qs.JoinHits)
		fmt.Fprintf(sb, "datacell_query_slides_total{query=%q,kind=\"adopted\"} %d\n", id, qs.AdoptedSlides)
		fmt.Fprintf(sb, "datacell_query_slides_total{query=%q,kind=\"led\"} %d\n", id, qs.LedSlides)
		fmt.Fprintf(sb, "datacell_query_slides_total{query=%q,kind=\"batched\"} %d\n", id, qs.BatchedSlides)
		fmt.Fprintf(sb, "datacell_query_results_total{query=%q,outcome=\"delivered\"} %d\n", id, qs.Delivered)
		fmt.Fprintf(sb, "datacell_query_results_total{query=%q,outcome=\"dropped\"} %d\n", id, qs.Dropped)
	}
}
