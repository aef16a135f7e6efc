package main

import (
	"context"
	"net"
	"testing"
	"time"

	"datacell"
	"datacell/internal/serve"
)

// TestSmokeEveryWorkload drives every workload, at its frozen rate (a tenth
// of it under the race detector), through the whole load path against an
// in-process server on loopback with 0.3 s phases, and requires that no
// operation fails.
func TestSmokeEveryWorkload(t *testing.T) {
	ph := phases{warm: 100 * time.Millisecond, latency: 300 * time.Millisecond, capacity: 300 * time.Millisecond}
	for _, w := range workloads() {
		if raceEnabled {
			w.rate /= 10 // the detector's slowdown would make every result late
		}
		t.Run(w.name, func(t *testing.T) {
			db := datacell.New()
			if w.durable {
				var err error
				if db, err = datacell.OpenConfig(t.TempDir(), datacell.StoreConfig{RAMBudget: ramBudget}); err != nil {
					t.Fatal(err)
				}
			}
			defer db.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(db, serve.Config{})
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
				<-served
			}()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			s, err := openSession(ctx, w, 3, ln.Addr().String(), true)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			if err := s.closedLoopN(ctx, w.prefill()); err != nil {
				t.Fatalf("prefill: %v", err)
			}
			run := &timedRun{}
			if err := run.latencyPhase(ctx, s, ph, nil, false); err != nil {
				t.Fatal(err)
			}
			if err := run.capacityPhase(ctx, s, ph, nil, false); err != nil {
				t.Fatal(err)
			}
			s.close()
			out := &outcome{Metrics: metricSet{}}
			analyse(s, run, out)
			if out.Failed != 0 || !out.Correct || out.Attempted == 0 {
				t.Fatalf("failed %d of %d operations (correct %v)", out.Failed, out.Attempted, out.Correct)
			}
			for _, name := range []string{"latency_p50_us", "capacity_tuples_s"} {
				if out.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v", name, out.Metrics[name].Value)
				}
			}

			// The replay of the same slides must reproduce what came over
			// the wire, window for window.
			st, err := replay(newTracer(w.name), w, 3, w.prefill()+8, time.Minute, t.TempDir(), s.seen)
			if err != nil {
				t.Fatal(err)
			}
			if st.compared == 0 || st.mismatch != 0 {
				t.Errorf("replay: %d windows compared, %d differ", st.compared, st.mismatch)
			}
		})
	}
}
