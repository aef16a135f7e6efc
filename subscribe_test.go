package datacell

import (
	"context"
	"sync"
	"testing"
	"time"
)

func subDB(t *testing.T) (*DB, *Query) {
	t.Helper()
	db := New()
	db.MustRegisterStream("s", Col("x1", Int64), Col("x2", Int64))
	q, err := db.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

// recv takes one result from ch, failing if none comes within 5s.
func recv(t *testing.T, ch <-chan *Result) *Result {
	t.Helper()
	select {
	case r, ok := <-ch:
		if !ok {
			t.Fatal("channel closed, want a result")
		}
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a result")
		return nil
	}
}

// produce appends enough tuples for n windows and pumps synchronously.
func produce(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < 2*n; i++ {
		if err := db.Append("s", []Value{Int(1), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Pump(); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeCancelClosesChannel(t *testing.T) {
	db, q := subDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := q.Subscribe(ctx, SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	produce(t, db, 1)
	if r := recv(t, ch); r.Window != 1 {
		t.Fatalf("window %d", r.Window)
	}
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("expected closed channel, got a result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
	// The cancelled reader's cursor is gone: a window produced now has no
	// reader, and a new subscription starts at the newest window.
	produce(t, db, 1)
	if rs := q.Results(); len(rs) != 0 {
		t.Fatalf("post-cancel Results: %d windows, want none", len(rs))
	}
	ch, err = q.Subscribe(context.Background(), SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	produce(t, db, 1)
	if r := recv(t, ch); r.Window != 3 {
		t.Fatalf("resubscribed reader got window %d, want 3", r.Window)
	}
}

func TestSubscribeReplaysBacklogInOrder(t *testing.T) {
	db, q := subDB(t)
	produce(t, db, 3) // buffered pre-subscribe
	ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A live result must queue behind the backlog. Block policy with a
	// 1-slot buffer means the producer needs a concurrent consumer.
	pumped := make(chan error, 1)
	go func() {
		for i := 0; i < 2; i++ {
			if err := db.Append("s", []Value{Int(1), Int(1)}); err != nil {
				pumped <- err
				return
			}
		}
		_, err := db.Pump()
		pumped <- err
	}()
	for want := 1; want <= 4; want++ {
		select {
		case r := <-ch:
			if r.Window != want {
				t.Fatalf("got window %d, want %d", r.Window, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for window %d", want)
		}
	}
	if err := <-pumped; err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeDropOldest(t *testing.T) {
	db, q := subDB(t)
	ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 2, OnOverflow: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody reads while 5 windows are produced: 1..3 must be dropped.
	produce(t, db, 5)
	got := []int{}
	for len(got) < 2 {
		select {
		case r := <-ch:
			got = append(got, r.Window)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out, got %v", got)
		}
	}
	if got[0] != 4 || got[1] != 5 {
		t.Fatalf("DropOldest kept %v, want [4 5]", got)
	}
	select {
	case r := <-ch:
		t.Fatalf("unexpected extra window %d", r.Window)
	default:
	}
}

func TestSubscribeBlockBackpressure(t *testing.T) {
	db, q := subDB(t)
	ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 1, OnOverflow: Block})
	if err != nil {
		t.Fatal(err)
	}
	db.Run()
	defer db.Stop()
	const windows = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2*windows; i++ {
			if err := db.Append("s", []Value{Int(1), Int(1)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// A slow consumer must still see every window, in order.
	for want := 1; want <= windows; want++ {
		select {
		case r := <-ch:
			if r.Window != want {
				t.Fatalf("got window %d, want %d", r.Window, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at window %d", want)
		}
		if want%5 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
}

// TestDoubleSubscribeRules: a second subscription while the first is
// active is its own reader — both see the next window — and cancelling
// one leaves the other reading.
func TestDoubleSubscribeRules(t *testing.T) {
	db, q := subDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	first, err := q.Subscribe(ctx, SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.Subscribe(context.Background(), SubOptions{Buffer: 4})
	if err != nil {
		t.Fatalf("second subscribe: %v", err)
	}
	produce(t, db, 1)
	for _, ch := range []<-chan *Result{first, second} {
		if r := recv(t, ch); r.Window != 1 {
			t.Fatalf("window %d, want 1", r.Window)
		}
	}
	cancel()
	for range first { // closed by cancellation
	}
	produce(t, db, 1)
	if r := recv(t, second); r.Window != 2 {
		t.Fatalf("window %d after the other reader left, want 2", r.Window)
	}
}

// TestSubscribeConcurrentReaders reads one query through a Block and a
// DropOldest subscription and a Tap cursor at once: none is refused, and
// each sees its windows in order — every one for the two Block readers,
// an increasing run ending at the newest for DropOldest.
func TestSubscribeConcurrentReaders(t *testing.T) {
	db, q := subDB(t)
	const windows = 20
	block, err := q.Subscribe(context.Background(), SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	drop, err := q.Subscribe(context.Background(), SubOptions{Buffer: 2, OnOverflow: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	tap := q.Tap(CursorOptions{Limit: windows})
	defer tap.Close()

	read := func(ch <-chan *Result, got *[]int, wg *sync.WaitGroup) {
		defer wg.Done()
		for r := range ch {
			*got = append(*got, r.Window)
		}
	}
	var wg sync.WaitGroup
	var blockGot, dropGot []int
	wg.Add(2)
	go read(block, &blockGot, &wg)
	go read(drop, &dropGot, &wg)
	db.Run()
	for i := 0; i < 2*windows; i++ {
		if err := db.Append("s", []Value{Int(1), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for q.Windows() < windows {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler produced %d windows, want %d", q.Windows(), windows)
		}
		time.Sleep(time.Millisecond)
	}
	db.Stop()
	q.Close()
	wg.Wait()

	var tapGot []int
	for r, ok := tap.next(); ok; r, ok = tap.next() {
		tapGot = append(tapGot, r.Window)
	}
	for name, got := range map[string][]int{"Block": blockGot, "Tap": tapGot} {
		if len(got) != windows {
			t.Fatalf("%s reader saw %d windows, want %d: %v", name, len(got), windows, got)
		}
		for i, w := range got {
			if w != i+1 {
				t.Fatalf("%s reader saw %v, want 1..%d in order", name, got, windows)
			}
		}
	}
	if len(dropGot) == 0 || dropGot[len(dropGot)-1] != windows {
		t.Fatalf("DropOldest reader saw %v, want a run ending at %d", dropGot, windows)
	}
	for i := 1; i < len(dropGot); i++ {
		if dropGot[i] <= dropGot[i-1] {
			t.Fatalf("DropOldest reader saw %v out of order", dropGot)
		}
	}
}

func TestSubscribeOptionValidation(t *testing.T) {
	_, q := subDB(t)
	if _, err := q.Subscribe(context.Background(), SubOptions{Buffer: -1}); err == nil {
		t.Error("negative buffer should fail")
	}
	if _, err := q.Subscribe(context.Background(), SubOptions{OnOverflow: 99}); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestCloseClosesSubscription(t *testing.T) {
	db, q := subDB(t)
	ch, err := q.Subscribe(context.Background(), SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	produce(t, db, 1)
	q.Close()
	// The buffered result is still readable; then the channel closes.
	var seen int
	for r := range ch {
		seen++
		if r.Window != 1 {
			t.Fatalf("window %d", r.Window)
		}
	}
	if seen != 1 {
		t.Fatalf("saw %d results", seen)
	}
}
