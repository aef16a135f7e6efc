package engine

import (
	"runtime"
	"sync"
)

// This file implements the concurrent factory scheduler: the paper's
// Petri-net model where every factory is an independent executor. The
// factory the scheduler fires is the slide group (group.go): the queries
// that share one canonical fragment, or one query alone. Each group gets
// its own worker goroutine with a per-worker wake channel; receptors
// (Engine.Append, Engine.SetWatermark) wake each group that reads the
// stream they fed once, so independent groups pump in parallel while each
// group's steps stay totally ordered (group.stepMu).
//
// Two scheduling forms coexist:
//
//   - Start/Stop: the long-running form. One worker per group, event
//     driven, used by datacell.DB.Run.
//   - PumpParallel: the batch form. One bounded fan-out over the groups,
//     used by benchmarks and batch drivers that want parallelism with a
//     synchronous completion point.
//
// The deterministic synchronous Pump (engine.go) remains the tool of
// choice for tests.

// worker tracks one live group worker.
type worker struct {
	g    *group
	stop chan struct{} // closed to ask the worker to exit
	done chan struct{} // closed by the worker on exit
}

// wait blocks until the worker exits — unless a member of its group is
// currently inside its OnResult callback, in which case the caller may BE
// that worker (a callback calling Close or Stop) and waiting would
// self-deadlock. The stop channel is already closed, so the worker exits
// right after the in-flight step either way. The cost of not being able
// to tell the two apart: an external Stop/Close that races a result
// callback returns while that final callback finishes; the exiting worker
// processes no further data and (workers own per-generation wake channels)
// cannot swallow a successor's wake-ups.
func (w *worker) wait() {
	w.g.mu.Lock()
	emitting := w.g.emitting != nil
	w.g.mu.Unlock()
	if !emitting {
		<-w.done
	}
}

// Start launches one worker goroutine per slide group and marks the
// scheduler running; groups formed later get workers on registration.
// Start is idempotent and restartable after Stop: terminal per-query
// errors from the previous run are cleared so factories retry.
func (e *Engine) Start() {
	e.schedMu.Lock()
	defer e.schedMu.Unlock()
	if e.running {
		return
	}
	e.running = true
	e.deregErr = nil
	e.mu.Lock()
	qs := e.sortedQueriesLocked()
	gs := e.sortedGroupsLocked()
	e.mu.Unlock()
	for _, q := range qs {
		q.setErr(nil)
	}
	for _, g := range gs {
		e.startWorkerLocked(g)
	}
}

// Stop halts all group workers and blocks until in-flight steps finish.
// Buffered data stays in the baskets; a later Start (or a synchronous
// Pump) picks up exactly where the workers left off. Stop may be called
// from inside an OnResult callback: the calling group's in-flight step
// then finishes (and its worker exits) just after Stop returns.
func (e *Engine) Stop() {
	e.schedMu.Lock()
	if !e.running {
		e.schedMu.Unlock()
		return
	}
	e.running = false
	ws := e.workers
	e.workers = map[*group]*worker{}
	e.schedMu.Unlock()
	for _, w := range ws {
		close(w.stop)
	}
	for _, w := range ws {
		w.wait()
	}
}

// Running reports whether the concurrent scheduler is active.
func (e *Engine) Running() bool {
	e.schedMu.Lock()
	defer e.schedMu.Unlock()
	return e.running
}

// Err returns the first terminal worker error across queries (registration
// order), or nil if every factory is healthy. Errors of queries that were
// deregistered while failed are retained until the next Start.
func (e *Engine) Err() error {
	e.mu.Lock()
	qs := e.sortedQueriesLocked()
	e.mu.Unlock()
	for _, q := range qs {
		if err := q.Err(); err != nil {
			return err
		}
	}
	e.schedMu.Lock()
	defer e.schedMu.Unlock()
	return e.deregErr
}

// startWorkerLocked spawns the worker for g. Caller holds schedMu and has
// checked e.running. No-op if the group already has a live worker or no
// member left.
func (e *Engine) startWorkerLocked(g *group) {
	if _, live := e.workers[g]; live {
		return
	}
	wake := make(chan struct{}, 1)
	g.mu.Lock()
	empty := len(g.members) == 0
	if !empty {
		g.wake = wake
	}
	g.mu.Unlock()
	if empty {
		return
	}
	w := &worker{g: g, stop: make(chan struct{}), done: make(chan struct{})}
	e.workers[g] = w
	go g.work(w.stop, w.done, wake)
}

// maybeStartWorker gives a group that just gained a member its worker if
// the scheduler is live, and wakes the group either way, so a member
// registered with a backlog (recovery replay) drains it.
func (e *Engine) maybeStartWorker(g *group) {
	e.schedMu.Lock()
	if e.running {
		e.startWorkerLocked(g)
	}
	e.schedMu.Unlock()
	g.notify()
}

// stopWorker halts the worker of a group whose last member left and waits
// for it to exit (see worker.wait). No-op when the group has no worker.
func (e *Engine) stopWorker(g *group) {
	e.schedMu.Lock()
	w := e.workers[g]
	delete(e.workers, g)
	e.schedMu.Unlock()
	if w != nil {
		close(w.stop)
		w.wait()
	}
}

// work is the group worker loop: drain everything fireable, then sleep
// until a receptor posts to the wake channel. The stop channel is checked
// between steps (not just between drains), so Stop latency stays bounded
// by one step even when appenders outpace processing. A member's step
// error is terminal for that member until the scheduler restarts — it is
// stored for Err() and the member sits out later steps while the rest of
// the group keeps running.
func (g *group) work(stop, done chan struct{}, wake <-chan struct{}) {
	defer close(done)
	for {
		g.pump(stop, true)
		select {
		case <-stop:
			return
		case <-wake:
		}
	}
}

// PumpParallel is the concurrent form of Pump: it fans the slide groups
// out over a pool of at most workers goroutines (workers <= 0 means
// GOMAXPROCS) and returns the total number of slides fired once no query
// can fire anymore. Per-group step order is preserved; cross-group result
// interleaving is not deterministic. The first step error aborts the pass
// after the current round and is returned.
func (e *Engine) PumpParallel(workers int) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.mu.Lock()
	gs := e.sortedGroupsLocked()
	e.mu.Unlock()
	total := 0
	for {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		var resMu sync.Mutex
		roundSteps := 0
		var firstErr error
		for _, g := range gs {
			wg.Add(1)
			sem <- struct{}{}
			go func(g *group) {
				defer wg.Done()
				defer func() { <-sem }()
				n, err := g.pump(nil, false)
				resMu.Lock()
				roundSteps += n
				if err != nil && firstErr == nil {
					firstErr = err
				}
				resMu.Unlock()
			}(g)
		}
		wg.Wait()
		total += roundSteps
		if firstErr != nil {
			return total, firstErr
		}
		if roundSteps == 0 {
			return total, nil
		}
	}
}
