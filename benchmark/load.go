package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/serve"
)

// maxAhead is how many slides the closed-loop feeder may run ahead of the
// slowest subscription.
const maxAhead = 4

// stallWait bounds every wait for the server to make progress: a hung
// child fails the workload instead of hanging the benchmark.
const stallWait = 20 * time.Second

// queryRecv is one subscription's receive log. The receiver goroutine owns
// at, sum and bad until it exits; got is the only field read while it runs.
type queryRecv struct {
	first int          // slides appended before window 1 is due
	got   atomic.Int64 // windows received so far
	at    []int64      // at[w-1]: receive time of window w, ns since session.base (-1: never came)
	sum   []uint64     // sum[w-1]: checksum of window w
	bad   int          // duplicate, out-of-sequence or non-integer results
}

// done is the number of slides whose window this query has delivered (a
// slide before the first window owes nothing).
func (q *queryRecv) done() int { return int(q.got.Load()) + q.first - 1 }

// answer returns when slide number slide (0-based) was answered by this
// query, or ok false if its window never came. Slides before the first
// window owe nothing and must not be asked about.
func (q *queryRecv) answer(slide int) (at int64, ok bool) {
	w := slide - q.first + 1 // index of the window the slide completes
	if w < 0 || w >= len(q.at) || q.at[w] < 0 {
		return 0, false
	}
	return q.at[w], true
}

// session is the load generator's state against one server: a feeder
// connection, a subscriber connection holding every subscription, and the
// per-query receive logs.
type session struct {
	w    *workload
	seed uint64
	base time.Time

	feeder, subscriber *serve.Client
	recv               []*queryRecv
	bufs               []*slideBuf

	next       int // next slide to append
	appendErrs int

	progress chan struct{} // poked by receivers; capacity 1, never blocks them
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

// openSession connects both clients, optionally creates the streams, and
// registers every statement of the workload on the subscriber connection.
func openSession(ctx context.Context, w *workload, seed uint64, addr string, createStreams bool) (*session, error) {
	s := &session{w: w, seed: seed, base: time.Now(), progress: make(chan struct{}, 1)}
	var err error
	if s.feeder, err = serve.Dial(addr); err != nil {
		return nil, fmt.Errorf("dial feeder: %w", err)
	}
	if s.subscriber, err = serve.Dial(addr); err != nil {
		s.feeder.Close()
		return nil, fmt.Errorf("dial subscriber: %w", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	fail := func(err error) (*session, error) {
		s.close()
		return nil, err
	}
	if createStreams {
		for _, stmt := range w.ddl() {
			if _, _, err := s.feeder.Stmt(stmt); err != nil {
				return fail(fmt.Errorf("%s: %w", stmt, err))
			}
		}
	}
	for range w.streams {
		s.bufs = append(s.bufs, newSlideBuf(w.slideRows))
	}
	for i := range w.queries {
		q := &w.queries[i]
		// 256 frames is far beyond the closed loop's maxAhead and the open
		// loop's tolerated backlog, so the Block policy never stalls a query
		// on this connection in a healthy run.
		sub, err := s.subscriber.Register(q.sql, serve.RegisterOptions{Buffer: 256})
		if err != nil {
			return fail(fmt.Errorf("register %q: %w", q.sql, err))
		}
		r := &queryRecv{first: w.slidesToFirst(q)}
		s.recv = append(s.recv, r)
		s.wg.Add(1)
		go s.receive(rctx, r, sub)
	}
	return s, nil
}

// receive logs one subscription's results until the session closes.
func (s *session) receive(ctx context.Context, q *queryRecv, sub *serve.Sub) {
	defer s.wg.Done()
	for {
		r, err := sub.Recv(ctx)
		if err != nil {
			return
		}
		now := int64(time.Since(s.base))
		want := len(q.at) + 1
		if r.Window != want {
			q.bad++
			if r.Window < want {
				continue // duplicate or replayed: keep the first copy
			}
			for len(q.at) < r.Window-1 { // gap: mark the windows that never came
				q.at = append(q.at, -1)
				q.sum = append(q.sum, 0)
			}
		}
		sum, ok := tableChecksum(r.Table)
		if !ok {
			q.bad++
		}
		q.at = append(q.at, now)
		q.sum = append(q.sum, sum)
		q.got.Store(int64(len(q.at)))
		select {
		case s.progress <- struct{}{}:
		default:
		}
	}
}

// close ends both connections and waits for the receivers; the receive
// logs are safe to read afterwards.
func (s *session) close() {
	s.cancel()
	s.feeder.Close()
	s.subscriber.Close()
	s.wg.Wait()
}

// now is the session clock: ns since base, monotonic.
func (s *session) now() int64 { return int64(time.Since(s.base)) }

// minDone is the number of slides every subscription has answered.
func (s *session) minDone() int {
	m := s.recv[0].done()
	for _, q := range s.recv[1:] {
		if d := q.done(); d < m {
			m = d
		}
	}
	return m
}

var errStalled = errors.New("server made no progress within the stall bound")

// waitDone blocks until every subscription has answered slide number
// target (1-based count), the stall bound passes, or ctx ends.
func (s *session) waitDone(ctx context.Context, target int) error {
	timer := time.NewTimer(stallWait)
	defer timer.Stop()
	for s.minDone() < target {
		select {
		case <-s.progress:
		case <-timer.C:
			return errStalled
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// appendSlide sends the next slide: one append per stream, in order.
func (s *session) appendSlide() {
	for j, name := range s.w.streams {
		cols := s.bufs[j].fill(s.seed, j, s.next, s.w.keys)
		if err := s.feeder.Append(name, nil, cols); err != nil {
			s.appendErrs++
		}
	}
	s.next++
}

// openLoop appends n slides on a fixed schedule: slide i is due at
// t0 + i/rate and is sent late rather than skipped. It returns each
// slide's due and send time (session clock).
func (s *session) openLoop(ctx context.Context, n int, rate float64) (due, sent []int64) {
	due = make([]int64, n)
	sent = make([]int64, n)
	t0 := s.now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due[i] = t0 + int64(float64(i)/rate*1e9)
		if wait := due[i] - s.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		sent[i] = s.now()
		s.appendSlide()
	}
	return due, sent
}

// closedLoop appends as fast as acknowledgements allow, never more than
// maxAhead slides in front of the slowest subscription, until more() says
// stop; then it waits for every owed window.
func (s *session) closedLoop(ctx context.Context, more func() bool) error {
	for more() {
		if err := s.waitDone(ctx, s.next-maxAhead+1); err != nil {
			return err
		}
		s.appendSlide()
	}
	return s.waitDone(ctx, s.next)
}

// closedLoopN is closedLoop for a fixed number of slides.
func (s *session) closedLoopN(ctx context.Context, n int) error {
	end := s.next + n
	return s.closedLoop(ctx, func() bool { return s.next < end })
}

// lastReceive is when the last subscription answered a slide. Call it, like
// seen, only after close.
func (s *session) lastReceive(slide int) int64 {
	var last int64
	for _, q := range s.recv {
		if at, ok := q.answer(slide); ok && at > last {
			last = at
		}
	}
	return last
}

// seen returns the checksum received for window number win (1-based) of
// query qi, if it was received.
func (s *session) seen(qi, win int) (uint64, bool) {
	q := s.recv[qi]
	if win < 1 || win > len(q.at) || q.at[win-1] < 0 {
		return 0, false
	}
	return q.sum[win-1], true
}
