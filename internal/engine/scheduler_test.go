package engine

import (
	"sync"
	"testing"
	"time"

	"datacell/internal/catalog"
	"datacell/internal/vector"
)

func schedEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	schema := catalog.NewSchema(
		catalog.Column{Name: "x1", Type: vector.Int64},
		catalog.Column{Name: "x2", Type: vector.Int64},
	)
	if err := e.RegisterStream("s", schema); err != nil {
		t.Fatal(err)
	}
	return e
}

func appendN(t *testing.T, e *Engine, n int, x1, x2 int64) {
	t.Helper()
	rows := make([][]vector.Value, n)
	for i := range rows {
		rows[i] = []vector.Value{vector.IntValue(x1), vector.IntValue(x2)}
	}
	if err := e.AppendRows("s", rows, nil); err != nil {
		t.Fatal(err)
	}
}

func waitWindows(t *testing.T, q *ContinuousQuery, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Windows() < want {
		if time.Now().After(deadline) {
			t.Fatalf("query %s produced %d windows, want %d", q.ID, q.Windows(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerStartStopRestart(t *testing.T) {
	e := schedEngine(t)
	q, err := e.Register(`SELECT count(*) FROM s [RANGE 4 SLIDE 4]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.Start() // idempotent
	appendN(t, e, 8, 1, 1)
	waitWindows(t, q, 2)
	e.Stop()
	e.Stop() // idempotent

	// Data appended while stopped is drained after restart.
	appendN(t, e, 4, 1, 1)
	e.Start()
	waitWindows(t, q, 3)
	e.Stop()
}

func TestSchedulerWakesOnlySubscribedQueries(t *testing.T) {
	e := schedEngine(t)
	schema := catalog.NewSchema(catalog.Column{Name: "y", Type: vector.Int64})
	if err := e.RegisterStream("other", schema); err != nil {
		t.Fatal(err)
	}
	qs, err := e.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qo, err := e.Register(`SELECT count(*) FROM other [RANGE 2 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	appendN(t, e, 4, 1, 1)
	waitWindows(t, qs, 2)
	if got := qo.Windows(); got != 0 {
		t.Errorf("unsubscribed query fired %d windows", got)
	}
	if err := e.AppendRows("other", [][]vector.Value{{vector.IntValue(1)}, {vector.IntValue(2)}}, nil); err != nil {
		t.Fatal(err)
	}
	waitWindows(t, qo, 1)
}

func TestSchedulerRegisterWhileRunning(t *testing.T) {
	e := schedEngine(t)
	e.Start()
	defer e.Stop()
	q, err := e.Register(`SELECT count(*) FROM s [RANGE 3 SLIDE 3]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, e, 6, 1, 1)
	waitWindows(t, q, 2)
}

func TestSchedulerDeregisterLiveWorker(t *testing.T) {
	e := schedEngine(t)
	q, err := e.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	appendN(t, e, 4, 1, 1)
	waitWindows(t, q, 2)
	e.Deregister(q)
	// The worker is gone: further appends must not fire it.
	appendN(t, e, 4, 1, 1)
	time.Sleep(10 * time.Millisecond)
	if got := q.Windows(); got != 2 {
		t.Errorf("deregistered query fired: %d windows", got)
	}
}

// TestSchedulerErrorIsolation poisons one query (integer MOD by zero is an
// execution error) and checks that its worker parks with the error while
// an independent healthy query keeps producing, and that a scheduler
// restart clears the error state.
func TestSchedulerErrorIsolation(t *testing.T) {
	e := schedEngine(t)
	bad, err := e.Register(`SELECT sum(x2 % x1) FROM s [RANGE 2 SLIDE 2]`, Options{Mode: Reevaluation})
	if err != nil {
		t.Fatal(err)
	}
	good, err := e.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	appendN(t, e, 2, 0, 7) // x1 = 0 poisons the MOD query
	waitWindows(t, good, 1)
	deadline := time.Now().Add(5 * time.Second)
	for bad.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("poisoned query never reported an error")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Err(); err == nil {
		t.Error("engine Err should surface the worker error")
	}
	// The healthy factory is unaffected by its neighbour's death.
	appendN(t, e, 2, 1, 1)
	waitWindows(t, good, 2)
	e.Stop()

	// Restart clears the terminal error; the poison tuples are still
	// buffered so the query fails again, proving the retry actually ran.
	e.Start()
	if err := bad.Err(); err != nil {
		// The worker may have already re-failed; that is fine — what
		// matters is that Start attempted a retry, observable below.
		t.Logf("worker re-failed immediately: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for bad.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("restarted query never re-reported the error")
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
}

// TestDeregisterPreservesWorkerError checks that closing a failed query
// while the scheduler runs does not silently drop its error: Err keeps
// reporting it until the next Start.
func TestDeregisterPreservesWorkerError(t *testing.T) {
	e := schedEngine(t)
	bad, err := e.Register(`SELECT sum(x2 % x1) FROM s [RANGE 2 SLIDE 2]`, Options{Mode: Reevaluation})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	appendN(t, e, 2, 0, 7)
	deadline := time.Now().Add(5 * time.Second)
	for bad.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("poisoned query never reported an error")
		}
		time.Sleep(time.Millisecond)
	}
	e.Deregister(bad)
	if e.Err() == nil {
		t.Error("deregistering a failed query must not drop its error")
	}
	e.Stop()
	if e.Err() == nil {
		t.Error("error must survive Stop")
	}
	e.Start()
	if e.Err() != nil {
		t.Error("Start must clear the retained error")
	}
	e.Stop()
}

// TestCloseFromResultCallback deregisters a query from inside its own
// OnResult callback while the concurrent scheduler runs — the "stop after
// first result" pattern — which must not self-deadlock the worker.
func TestCloseFromResultCallback(t *testing.T) {
	e := schedEngine(t)
	var q *ContinuousQuery
	fired := make(chan struct{}, 1)
	var err error
	q, err = e.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{
		OnResult: func(*Result) {
			e.Deregister(q)
			fired <- struct{}{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	appendN(t, e, 6, 1, 1)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("callback never ran")
	}
	// The worker must actually exit so Stop does not hang.
	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung after Close-from-callback")
	}
	if got := q.Windows(); got != 1 {
		t.Errorf("query fired %d windows after closing itself on the first", got)
	}
}

// TestSchedulerConcurrentAppendsAndReaders is the -race stress test:
// several goroutines append while the scheduler runs and readers poll
// Windows/Stats, with a synchronous Pump racing the workers too.
func TestSchedulerConcurrentAppendsAndReaders(t *testing.T) {
	e := schedEngine(t)
	q1, err := e.Register(`SELECT x1, sum(x2) FROM s [RANGE 8 SLIDE 4] GROUP BY x1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Register(`SELECT count(*) FROM s [RANGE 10 SLIDE 10]`, Options{Mode: Reevaluation})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	const writers = 4
	const perWriter = 200
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rows := [][]vector.Value{{vector.IntValue(seed), vector.IntValue(int64(i))}}
				if err := e.AppendRows("s", rows, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				_ = q1.Windows()
				_ = q1.Stats()
				_ = q2.Stats()
				_ = e.Err()
			}
		}()
	}
	// A synchronous pump racing the workers must stay step-ordered.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := e.Pump(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish on their own; readers need the stop signal after.
	timer := time.AfterFunc(10*time.Second, func() { t.Error("stress test timed out") })
	defer timer.Stop()
	time.Sleep(50 * time.Millisecond)
	close(stopRead)
	<-done
	e.Stop()

	// Drain the tail deterministically and check the totals line up.
	if _, err := e.Pump(); err != nil {
		t.Fatal(err)
	}
	total := writers * perWriter
	wantQ2 := total / 10
	if got := q2.Windows(); got != wantQ2 {
		t.Errorf("q2 windows: %d, want %d", got, wantQ2)
	}
	wantQ1 := (total-8)/4 + 1
	if got := q1.Windows(); got != wantQ1 {
		t.Errorf("q1 windows: %d, want %d", got, wantQ1)
	}
}

// TestPumpParallelMatchesSerial drains identical engines with Pump and
// PumpParallel and compares window counts and step totals.
func TestPumpParallelMatchesSerial(t *testing.T) {
	mk := func() (*Engine, []*ContinuousQuery) {
		e := schedEngine(t)
		var qs []*ContinuousQuery
		for _, sqlText := range []string{
			`SELECT x1, sum(x2) FROM s [RANGE 6 SLIDE 2] GROUP BY x1`,
			`SELECT count(*) FROM s [RANGE 4 SLIDE 4]`,
			`SELECT max(x2) FROM s [RANGE 5 SLIDE 1]`,
		} {
			q, err := e.Register(sqlText, Options{})
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		appendN(t, e, 40, 1, 3)
		return e, qs
	}
	es, serialQs := mk()
	ep, parallelQs := mk()
	sn, err := es.Pump()
	if err != nil {
		t.Fatal(err)
	}
	pn, err := ep.PumpParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	if sn != pn {
		t.Errorf("steps: serial %d vs parallel %d", sn, pn)
	}
	for i := range serialQs {
		if s, p := serialQs[i].Windows(), parallelQs[i].Windows(); s != p {
			t.Errorf("query %d windows: serial %d vs parallel %d", i, s, p)
		}
	}
}
