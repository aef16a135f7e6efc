package datacell

import (
	"context"
	"fmt"
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

// Subscribe returns a channel of window results with explicit cancellation
// and backpressure. It is a channel over a cursor of its own (see Query
// for where that cursor starts), so any number of subscriptions and Tap
// cursors may read one query at once. The channel is closed when ctx is
// cancelled, or once the query is Closed and its remaining results were
// read; results the consumer never read go with it.
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
	ch := make(chan *Result)
	wake := make(chan struct{}, 1) // poked when an entry landed or was dropped
	c := q.Tap(CursorOptions{
		Limit:   opts.Buffer,
		Policy:  opts.OnOverflow,
		Dropped: &q.dropped,
		Wake: func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		},
	})
	go q.emit(ctx, c, ch, wake)
	return ch, nil
}

// emit is a subscription's emitter: it hands the entry at its cursor to
// the consumer and advances past it once taken. A wake while the send
// waits means the log moved — the entry may have been dropped — so it
// looks again. It closes the cursor before the channel, so a closed
// channel no longer pins the log or stalls the query.
func (q *Query) emit(ctx context.Context, c *Cursor, ch chan<- *Result, wake <-chan struct{}) {
	defer close(ch)
	defer c.Close()
	for ctx.Err() == nil {
		e, at, end := c.peek()
		if end {
			return
		}
		// With nothing to send, wait for a wake or the log's close.
		var out chan<- *Result
		var r *Result
		closed := q.log.end
		if e != nil {
			out, r, closed = ch, e.r, nil
		}
		select {
		case out <- r:
			c.advance(at)
			q.delivered.Add(1)
		case <-wake:
		case <-closed:
		case <-ctx.Done():
		}
	}
}
