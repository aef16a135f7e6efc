package datacell

import (
	"context"
	"errors"
	"fmt"
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
	if r := <-ch; r.Window != 1 {
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
	// Results produced after cancellation buffer for the next sink.
	produce(t, db, 1)
	if rs := q.Results(); len(rs) != 1 || rs[0].Window != 2 {
		t.Fatalf("post-cancel results: %v", rs)
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

func TestDoubleSubscribeRules(t *testing.T) {
	_, q := subDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := q.Subscribe(ctx, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Subscribe(context.Background(), SubOptions{}); !errors.Is(err, ErrSubscribed) {
		t.Fatalf("second subscribe: %v", err)
	}
	cancel()
	<-ch // closed by cancellation
	// After the old subscription dies, a new one is allowed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.Subscribe(context.Background(), SubOptions{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-subscribe after cancel never succeeded")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubscribeHandlerExclusion(t *testing.T) {
	_, q := subDB(t)
	q.OnResult(func(*Result) {})
	if _, err := q.Subscribe(context.Background(), SubOptions{}); !errors.Is(err, ErrHasHandler) {
		t.Fatalf("subscribe after OnResult: %v", err)
	}

	_, q2 := subDB(t)
	if _, err := q2.Subscribe(context.Background(), SubOptions{}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("OnResult with active subscription should panic")
			}
		}()
		q2.OnResult(func(*Result) {})
	}()
}

// TestOnResultReentrant swaps the handler from inside the handler: the
// nested OnResult returns at once, and the windows after the one being
// handled go to the new handler, in order.
func TestOnResultReentrant(t *testing.T) {
	db, q := subDB(t)
	var got []string
	second := func(r *Result) { got = append(got, fmt.Sprintf("second:%d", r.Window)) }
	q.OnResult(func(r *Result) {
		got = append(got, fmt.Sprintf("first:%d", r.Window))
		q.OnResult(second)
	})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 4; i++ {
			if err := db.Append("s", []Value{Int(1), Int(1)}); err != nil {
				done <- err
				return
			}
		}
		_, err := db.Pump()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnResult called from inside the handler deadlocked")
	}
	if want := []string{"first:1", "second:2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", got, want)
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

func TestResults2Iterator(t *testing.T) {
	db, q := subDB(t)
	produce(t, db, 2)
	// Early break stops the iteration and releases the subscription.
	got := 0
	for r, err := range q.Results2() {
		if err != nil {
			t.Fatal(err)
		}
		if r.Window != got+1 {
			t.Fatalf("window %d, want %d", r.Window, got+1)
		}
		got++
		if got == 2 {
			break
		}
	}
	if got != 2 {
		t.Fatalf("iterated %d", got)
	}
	// Wait for the broken iterator's subscription to detach, so the next
	// result deterministically buffers instead of racing the teardown.
	waitUnsubscribed(t, q)
	// Results produced between iterations buffer; a second iteration
	// replays them and ends when the query is closed.
	produce(t, db, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		q.Close()
	}()
	rest := []int{}
	for r, err := range q.Results2() {
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, r.Window)
	}
	if len(rest) != 1 || rest[0] != 3 {
		t.Fatalf("second pass got %v, want [3]", rest)
	}
}

// waitUnsubscribed blocks until q has no attached subscription.
func waitUnsubscribed(t *testing.T, q *Query) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		s := q.sub
		q.mu.Unlock()
		if s == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never detached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainChanSink(t *testing.T) {
	db, q := subDB(t)
	produce(t, db, 2)
	out := make(chan *Result, 4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.Drain(ctx, ChanSink(out)) }()
	for want := 1; want <= 2; want++ {
		select {
		case r := <-out:
			if r.Window != want {
				t.Fatalf("window %d, want %d", r.Window, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("drain returned %v", err)
	}

	// A sink error aborts the drain.
	db2, q2 := subDB(t)
	produce(t, db2, 1)
	sinkErr := errors.New("sink broke")
	if err := q2.Drain(context.Background(), SinkFunc(func(context.Context, *Result) error { return sinkErr })); !errors.Is(err, sinkErr) {
		t.Fatalf("drain returned %v", err)
	}
}
