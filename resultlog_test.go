package datacell

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// logCase is one scenario of the result-log contract. It receives a fresh
// query whose in-process cursor is closed, so the log holds only the
// cursors the case opens with q.Tap.
type logCase struct {
	name string
	run  func(t *testing.T, q *Query)
}

// put appends windows from..to to q's log, as the query's step does.
func put(q *Query, from, to int) {
	for w := from; w <= to; w++ {
		q.log.append(&Result{Window: w})
	}
}

// stalled starts put(q, w, w) and fails unless it is still waiting a
// moment later; the returned channel closes when it returns.
func stalled(t *testing.T, q *Query, w int) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		put(q, w, w)
	}()
	select {
	case <-done:
		t.Fatalf("append of window %d returned past a full Block cursor", w)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func released(t *testing.T, done <-chan struct{}, by string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("stalled append not released by %s", by)
	}
}

// lag is how many logged windows c has not taken (0 once detached).
func lag(c *Cursor) int {
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	if c.done {
		return 0
	}
	return int(c.log.head() - c.pos)
}

func window(t *testing.T, c *Cursor) int {
	t.Helper()
	r, ok := c.next()
	if !ok {
		t.Fatal("cursor has no entry")
	}
	return r.Window
}

var logCases = []logCase{
	{"retention follows the minimum cursor", func(t *testing.T, q *Query) {
		a := q.Tap(CursorOptions{Limit: 100})
		b := q.Tap(CursorOptions{Limit: 100})
		put(q, 1, 5)
		for _, step := range []struct {
			c       *Cursor
			take    int
			close   bool
			backlog int
		}{
			{a, 3, false, 5}, // b still pins window 1
			{b, 4, false, 2}, // now a, at window 4, is the slowest
			{a, 0, true, 1},  // a gone: b, at window 5, pins one
			{b, 0, true, 0},
		} {
			for i := 0; i < step.take; i++ {
				window(t, step.c)
			}
			if step.close {
				step.c.Close()
			}
			if got := q.Stats().Backlog; got != step.backlog {
				t.Fatalf("backlog %d, want %d", got, step.backlog)
			}
		}
	}},
	{"Block stalls append until the cursor moves", func(t *testing.T, q *Query) {
		c := q.Tap(CursorOptions{Limit: 1})
		put(q, 1, 1)
		done := stalled(t, q, 2)
		if w := window(t, c); w != 1 {
			t.Fatalf("took window %d, want 1", w)
		}
		released(t, done, "the cursor moving")
	}},
	{"Block is released by closing the cursor", func(t *testing.T, q *Query) {
		c := q.Tap(CursorOptions{Limit: 0})
		done := stalled(t, q, 1)
		c.Close()
		released(t, done, "Cursor.Close")
	}},
	{"Block is released by Query.Close", func(t *testing.T, q *Query) {
		q.Tap(CursorOptions{Limit: 0})
		done := stalled(t, q, 1)
		q.Close()
		released(t, done, "Query.Close")
		put(q, 2, 2) // a closed log ignores appends, and never stalls
	}},
	{"DropOldest moves only its own cursor", func(t *testing.T, q *Query) {
		var drops atomic.Int64
		d := q.Tap(CursorOptions{Limit: 2, Policy: DropOldest, Dropped: &drops})
		k := q.Tap(CursorOptions{Limit: 100})
		put(q, 1, 5)
		if lag(d) != 2 || drops.Load() != 3 || lag(k) != 5 {
			t.Fatalf("lags %d/%d with %d drops, want 2/5 with 3", lag(d), lag(k), drops.Load())
		}
		if w := window(t, d); w != 4 {
			t.Fatalf("DropOldest cursor resumed at window %d, want 4", w)
		}
		if w := window(t, k); w != 1 {
			t.Fatalf("Block cursor resumed at window %d, want 1", w)
		}
	}},
	{"Disconnect detaches the cursor and calls the hook once", func(t *testing.T, q *Query) {
		var evicted atomic.Int32
		x := q.Tap(CursorOptions{Limit: 1, Policy: Disconnect, Evict: func() {
			evicted.Add(1)
			_ = q.Stats().Backlog // would deadlock if the log held its lock here
		}})
		put(q, 1, 4)
		x.Close()
		if n := evicted.Load(); n != 1 {
			t.Fatalf("evict hook ran %d times, want 1", n)
		}
		if _, ok := x.next(); ok || lag(x) != 0 || q.Stats().Backlog != 0 {
			t.Fatal("a disconnected cursor still reads or pins the log")
		}
	}},
	{"a cursor opened mid-stream starts at the head", func(t *testing.T, q *Query) {
		q.Tap(CursorOptions{Limit: 100})
		put(q, 1, 3)
		late := q.Tap(CursorOptions{Limit: 100})
		if lag(late) != 0 {
			t.Fatalf("late cursor lags %d, want 0", lag(late))
		}
		put(q, 4, 4)
		if w := window(t, late); w != 4 {
			t.Fatalf("late cursor read window %d, want 4", w)
		}
	}},
	{"64 concurrent readers of one entry encode it once", func(t *testing.T, q *Query) {
		const readers = 64
		cs := make([]*Cursor, readers)
		for i := range cs {
			cs[i] = q.Tap(CursorOptions{Limit: 100})
		}
		put(q, 1, 1)
		var encodes atomic.Int32
		encode := func(r *Result) []byte {
			encodes.Add(1)
			return []byte{byte(r.Window)}
		}
		frames := make([][]byte, readers)
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				frames[i], _, _ = c.Next(encode)
			}()
		}
		wg.Wait()
		if n := encodes.Load(); n != 1 {
			t.Fatalf("%d encodes for one entry, want 1", n)
		}
		for i, f := range frames {
			if len(f) != 1 || &f[0] != &frames[0][0] {
				t.Fatalf("reader %d got its own frame copy", i)
			}
		}
		if q.Stats().Backlog != 0 {
			t.Fatal("entry retained after every cursor passed it")
		}
	}},
}

// TestResultLogContract pins the output basket: retention at the slowest
// cursor, and each overflow policy applied on the appending side.
func TestResultLogContract(t *testing.T) {
	for _, tc := range logCases {
		t.Run(tc.name, func(t *testing.T) {
			_, q := subDB(t)
			q.own.Close()
			tc.run(t, q)
		})
	}
}

// TestSubscribeGoroutines is the accounting for subscriptions: each costs
// one emitter goroutine, and cancel or Close gives it back.
func TestSubscribeGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, db *DB, q *Query)
	}{
		{"Subscribe then cancel", func(t *testing.T, db *DB, q *Query) {
			ctx, cancel := context.WithCancel(context.Background())
			ch, err := q.Subscribe(ctx, SubOptions{Buffer: 1})
			if err != nil {
				t.Fatal(err)
			}
			produce(t, db, 1)
			<-ch
			cancel()
			for range ch {
			}
		}},
		{"Subscribe then Close", func(t *testing.T, db *DB, q *Query) {
			ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 4})
			if err != nil {
				t.Fatal(err)
			}
			produce(t, db, 2)
			q.Close()
			for range ch {
			}
		}},
		{"two Subscribes then Close", func(t *testing.T, db *DB, q *Query) {
			chs := make([]<-chan *Result, 2)
			for i := range chs {
				ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 4})
				if err != nil {
					t.Fatal(err)
				}
				chs[i] = ch
			}
			produce(t, db, 2)
			q.Close()
			for _, ch := range chs {
				for range ch {
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			db, q := subDB(t)
			tc.run(t, db, q)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
