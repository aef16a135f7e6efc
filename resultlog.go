package datacell

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// resultLog is a query's output basket: the windows it emitted, in order,
// read by any number of cursors. An entry lives until the slowest cursor
// has passed it. Each cursor's overflow policy is applied in one place,
// append, on the step that produced the window.
type resultLog struct {
	mu      sync.Mutex
	moved   sync.Cond // on mu: a cursor advanced or closed, or the log closed
	entries []*entry  // entries[i] sits at position base+i
	base    int64
	cursors []*Cursor
	closed  bool
	end     chan struct{} // closed with the log, for readers waiting on a channel
}

// entry is one window in the log. Its wire frame is encoded at most once,
// by whichever cursor asks first, and shared by every reader.
type entry struct {
	r     *Result
	once  sync.Once
	frame []byte
}

// Cursor is one reader's position in a query's result log.
type Cursor struct {
	log  *resultLog
	pos  int64
	opts CursorOptions
	done bool // detached from the log; guarded by log.mu like pos and opts
}

// CursorOptions configure a cursor opened by Query.Tap; they are fixed
// when it opens.
type CursorOptions struct {
	// Policy applies once the cursor lags more than Limit windows.
	Limit  int
	Policy OverflowPolicy
	// Wake runs after each window lands for this cursor; Evict runs once
	// when a Disconnect cursor overflows and is detached. The log never
	// holds its lock while calling either.
	Wake, Evict func()
	// Dropped, when set, counts the windows a DropOldest cursor skipped.
	Dropped *atomic.Int64
}

// unbounded keeps everything and never stalls the query.
var unbounded = CursorOptions{Limit: math.MaxInt}

func (l *resultLog) head() int64 { return l.base + int64(len(l.entries)) }

// open attaches c at from's position, taking over what from has not read
// and detaching it, or at the head when from is nil or already detached.
func (l *resultLog) open(c *Cursor, from *Cursor) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c.log, c.pos = l, l.head()
	l.cursors = append(l.cursors, c)
	if from != nil && !from.done {
		c.pos = from.pos
		l.detachLocked(from)
	}
}

// append adds one window and applies every cursor's policy: DropOldest
// skips that cursor's oldest window, Disconnect detaches the cursor and
// calls its Evict hook, and Block makes the caller wait until the cursor
// is back within its limit, closes, or the log closes.
func (l *resultLog) append(r *Result) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.entries = append(l.entries, &entry{r: r})
	head := l.head()
	var hooks []func()
	for i := len(l.cursors) - 1; i >= 0; i-- {
		c := l.cursors[i]
		lag, limit := head-c.pos, int64(c.opts.Limit)
		switch keep := max(limit, 1); { // an unbuffered DropOldest reader keeps the newest
		case c.opts.Policy == DropOldest && lag > keep:
			c.pos = head - keep
			if c.opts.Dropped != nil {
				c.opts.Dropped.Add(lag - keep)
			}
		case c.opts.Policy == Disconnect && lag > limit:
			l.detachLocked(c)
			hooks = append(hooks, c.opts.Evict)
			continue
		}
		hooks = append(hooks, c.opts.Wake)
	}
	l.trimLocked()
	l.mu.Unlock()
	for _, f := range hooks { // never with the lock held
		if f != nil {
			f()
		}
	}
	l.mu.Lock()
	for l.blockedLocked(head) {
		l.moved.Wait()
	}
	l.mu.Unlock()
}

// blockedLocked: the log is open and a Block cursor lags more than its
// limit behind head.
func (l *resultLog) blockedLocked(head int64) bool {
	return !l.closed && slices.ContainsFunc(l.cursors, func(c *Cursor) bool {
		return c.opts.Policy == Block && head-c.pos > int64(c.opts.Limit)
	})
}

// trimLocked releases the entries every cursor has passed.
func (l *resultLog) trimLocked() {
	lo := l.head()
	for _, c := range l.cursors {
		lo = min(lo, c.pos)
	}
	if n := lo - l.base; n > 0 {
		clear(l.entries[:n])
		l.entries, l.base = l.entries[n:], lo
	}
}

func (l *resultLog) detachLocked(c *Cursor) {
	l.cursors = slices.DeleteFunc(l.cursors, func(o *Cursor) bool { return o == c })
	c.done = true
	l.trimLocked()
	l.moved.Broadcast()
}

// close ends the log: appends are ignored from here and Block waits
// return; cursors still read what is left. Idempotent.
func (l *resultLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.end)
		l.moved.Broadcast()
	}
}

// backlog is the number of entries between the slowest cursor and the head.
func (l *resultLog) backlog() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// peek returns the entry at c's position, or nil with end set when none
// will come: c is detached, or the log is closed and c has read it all.
func (c *Cursor) peek() (e *entry, at int64, end bool) {
	l := c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if !c.done && c.pos < l.head() {
		return l.entries[c.pos-l.base], c.pos, false
	}
	return nil, c.pos, c.done || l.closed
}

// advance moves c past position at, unless its policy already has, and
// reports whether more entries wait.
func (c *Cursor) advance(at int64) (more bool) {
	l := c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.pos == at && !c.done {
		c.pos++
		l.trimLocked()
		l.moved.Broadcast()
	}
	return !c.done && c.pos < l.head()
}

// next takes the entry at c's position, if any, in one hold of the lock,
// so concurrent callers never take the same entry twice.
func (c *Cursor) next() (*Result, bool) {
	l := c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.done || c.pos >= l.head() {
		return nil, false
	}
	r := l.entries[c.pos-l.base].r
	c.pos++
	l.trimLocked()
	l.moved.Broadcast()
	return r, true
}

// Next takes the window at the cursor and returns its frame, which encode
// builds only for the first cursor of the log to ask. more reports whether
// further windows wait; ok is false when there was none to take.
func (c *Cursor) Next(encode func(*Result) []byte) (frame []byte, more, ok bool) {
	e, at, _ := c.peek()
	if e == nil {
		return nil, false, false
	}
	e.once.Do(func() { e.frame = encode(e.r) })
	return e.frame, c.advance(at), true
}

// Close detaches the cursor: it stops pinning the log and stops stalling
// the query. Idempotent.
func (c *Cursor) Close() {
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	if !c.done {
		c.log.detachLocked(c)
	}
}
