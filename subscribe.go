package datacell

import (
	"context"
	"errors"
	"fmt"
	"iter"
)

// Delivery errors returned by Subscribe.
var (
	// ErrSubscribed is returned by Subscribe when the query already has an
	// active subscription.
	ErrSubscribed = errors.New("datacell: query already has an active subscription")
	// ErrHasHandler is returned by Subscribe when the query already has an
	// OnResult handler installed.
	ErrHasHandler = errors.New("datacell: query already has an OnResult handler")
)

// OverflowPolicy says what a reader of a query's results gets when it
// falls more than its buffer behind the newest window.
type OverflowPolicy uint8

const (
	// Block applies backpressure: the query's step blocks until the
	// consumer reads or the subscription's context is cancelled. This is
	// the default.
	Block OverflowPolicy = iota
	// DropOldest discards the oldest undelivered result to make room for
	// the newest — bounded staleness instead of backpressure. With an
	// unbuffered subscription (Buffer 0) only the newest result waits.
	DropOldest
	// Disconnect detaches the reader instead (Query.Tap cursors only;
	// Subscribe rejects it).
	Disconnect
)

// SubOptions configure a subscription.
type SubOptions struct {
	// Buffer is how many results may wait unread (0 = unbuffered).
	Buffer int
	// OnOverflow selects the full-buffer behavior (default Block).
	OnOverflow OverflowPolicy
}

// subscription is the channel sink behind Subscribe, Results2 and Drain:
// the query's in-process cursor, read by one emitter goroutine that hands
// each result to the channel and only then advances the cursor, so a
// result the consumer never took stays in the log for the next sink.
type subscription struct {
	ch   chan *Result
	ctx  context.Context
	wake chan struct{} // poked when an entry landed or was dropped, or the log closed
	done chan struct{} // closed once the emitter has detached
}

// Subscribe returns a channel of window results with explicit cancellation
// and backpressure — the channel-native alternative to OnResult. Results
// produced before the call and not read by an earlier sink come first, in
// order. The channel is closed when ctx is cancelled, or once the query is
// Closed and its remaining results were read; results the consumer never
// read stay buffered for the next sink.
//
// A query has one delivery mechanism at a time: Subscribe fails with
// ErrHasHandler if OnResult was installed and ErrSubscribed if another
// subscription is still active.
func (q *Query) Subscribe(ctx context.Context, opts SubOptions) (<-chan *Result, error) {
	if opts.Buffer < 0 {
		return nil, fmt.Errorf("datacell: Subscribe: negative buffer %d", opts.Buffer)
	}
	if opts.OnOverflow > DropOldest {
		return nil, fmt.Errorf("datacell: Subscribe: unknown overflow policy %d", opts.OnOverflow)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	q.settleLocked()
	defer q.mu.Unlock()
	switch {
	case q.handler != nil:
		return nil, ErrHasHandler
	case q.sub != nil:
		return nil, ErrSubscribed
	}
	s := &subscription{
		ch:   make(chan *Result),
		ctx:  ctx,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	q.sub = s
	q.own.configure(CursorOptions{Limit: opts.Buffer, Policy: opts.OnOverflow, Wake: s.poke, Dropped: &q.dropped})
	go q.emit(s)
	return s.ch, nil
}

// poke wakes the emitter without blocking.
func (s *subscription) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// settleLocked waits out a cancelled subscription that is still detaching,
// so the next sink starts where it left off. Caller holds q.mu, which is
// released while waiting.
func (q *Query) settleLocked() {
	for q.sub != nil && q.sub.ctx.Err() != nil {
		done := q.sub.done
		q.mu.Unlock()
		<-done
		q.mu.Lock()
	}
}

// emit is a subscription's emitter: it hands the entry at the in-process
// cursor to the consumer and advances past it once taken. A wake while the
// send waits means the log moved — the entry may have been dropped — so it
// looks again. It detaches before closing the channel, so a closed channel
// means a new sink may attach.
func (q *Query) emit(s *subscription) {
	for s.ctx.Err() == nil {
		e, at, end := q.own.peek()
		if end {
			break
		}
		var ch chan *Result // nil while there is nothing to send: wait for a wake
		var r *Result
		if e != nil {
			ch, r = s.ch, e.r
		}
		select {
		case ch <- r:
			q.own.advance(at)
			q.delivered.Add(1)
		case <-s.wake:
		case <-s.ctx.Done():
		}
	}
	q.mu.Lock()
	q.sub = nil
	q.own.configure(unbounded)
	q.mu.Unlock()
	close(s.done)
	close(s.ch)
}

// Results2 returns a Go 1.23 range-over-func iterator over the query's
// results: for r, err := range q.Results2() { ... }. It subscribes
// internally with Block backpressure, so ranging slowly slows the query
// rather than dropping results. The iteration ends when the consumer
// breaks, when the query is Closed, or — after yielding (nil, err) — when
// subscribing fails or the query's worker has died (Query.Err).
func (q *Query) Results2() iter.Seq2[*Result, error] {
	return func(yield func(*Result, error) bool) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ch, err := q.Subscribe(ctx, SubOptions{Buffer: 64})
		if err != nil {
			yield(nil, err)
			return
		}
		for r := range ch {
			if !yield(r, nil) {
				return
			}
		}
		if err := q.Err(); err != nil {
			yield(nil, err)
		}
	}
}

// Sink consumes window results — the emitter-side half of the unified
// Source/Sink I/O surface. Write is called once per result, in order; a
// blocking Write must honor ctx so Drain can be cancelled mid-write.
type Sink interface {
	Write(ctx context.Context, r *Result) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(context.Context, *Result) error

// Write implements Sink.
func (f SinkFunc) Write(ctx context.Context, r *Result) error { return f(ctx, r) }

// ChanSink returns a Sink that forwards every result to ch, blocking until
// the send succeeds or ctx is cancelled.
func ChanSink(ch chan<- *Result) Sink {
	return SinkFunc(func(ctx context.Context, r *Result) error {
		select {
		case ch <- r:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

// Drain subscribes to the query and writes every result to sink until ctx
// is cancelled, the query is Closed, or sink returns an error (which Drain
// returns). It returns ctx.Err() on cancellation and nil when the query
// was closed.
func (q *Query) Drain(ctx context.Context, sink Sink) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := q.Subscribe(ctx, SubOptions{Buffer: 64})
	if err != nil {
		return err
	}
	for r := range ch {
		if err := sink.Write(ctx, r); err != nil {
			return err
		}
	}
	return ctx.Err()
}
