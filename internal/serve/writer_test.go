package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell"
	"datacell/internal/vector"
)

// gateConn is the server's end of a connection as the tests see it: it
// keeps a copy of every Write and can park the next one until released.
type gateConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	gate   chan struct{} // non-nil: the next Write parks on it
	parked chan struct{} // closed once that Write has parked
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	gate, parked := g.gate, g.parked
	g.gate = nil
	g.mu.Unlock()
	if gate != nil {
		close(parked)
		<-gate
	}
	return g.Conn.Write(p)
}

// hold parks the next Write; parked closes when it has, release lets it go.
func (g *gateConn) hold() (parked <-chan struct{}, release func()) {
	gate, p := make(chan struct{}), make(chan struct{})
	g.mu.Lock()
	g.gate, g.parked = gate, p
	g.mu.Unlock()
	return p, func() { close(gate) }
}

func (g *gateConn) written() [][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]byte(nil), g.writes...)
}

// gateListener hands out gateConns, in accept order, on accepted.
type gateListener struct {
	net.Listener
	accepted chan *gateConn
}

func (l *gateListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	g := &gateConn{Conn: nc}
	l.accepted <- g
	return g, nil
}

func newGateListener(t *testing.T) *gateListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One slot per connection a test opens before it reads them off.
	return &gateListener{Listener: ln, accepted: make(chan *gateConn, 8)}
}

// dialGated dials a client and returns it with the server's end of its
// connection.
func dialGated(t *testing.T, ln *gateListener, addr string) (*Client, *gateConn) {
	t.Helper()
	cl := dialT(t, addr)
	return cl, <-ln.accepted
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// rawDial shakes hands by hand, for tests that must see frames in wire
// order or never read at all.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := WriteFrame(nc, MsgHello, append([]byte(Magic), ProtocolVersion)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if typ, _, _, err := ReadFrame(br, nil); err != nil || typ != MsgOK {
		t.Fatalf("handshake: type 0x%02x err %v", uint8(typ), err)
	}
	return nc, br
}

func rawRegister(t *testing.T, nc net.Conn, seq uint32, policy Policy, buffer uint32, sql string) {
	t.Helper()
	b := appendU32(nil, seq)
	b = append(b, byte(datacell.Incremental), byte(policy))
	b = appendU32(b, buffer)
	if err := WriteFrame(nc, MsgRegister, appendStr32(b, sql)); err != nil {
		t.Fatal(err)
	}
}

// siblingStmt is the i-th of a family of distinct statements over newIntDB's
// stream that all pass rows with x1 >= 64: one fanout each.
func siblingStmt(i int) string {
	return fmt.Sprintf(`SELECT count(*) FROM s [RANGE 2 SLIDE 2] WHERE x1 >= %d`, i)
}

// TestWriterCoalescesSiblingFrames pins the batching: while the socket is
// busy with one write, everything 64 subscriptions queue behind it leaves in
// as few further writes as the 64 KiB buffer allows, and every subscription
// still sees its own windows in order.
func TestWriterCoalescesSiblingFrames(t *testing.T) {
	db := newIntDB(t)
	ln := newGateListener(t)
	srv, addr := serveOn(t, db, Config{}, ln)
	cl, g := dialGated(t, ln, addr)
	const n = 64
	subs := make([]*Sub, n)
	for i := range subs {
		var err error
		if subs[i], err = cl.Register(siblingStmt(i), RegisterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	feeder, _ := dialGated(t, ln, addr)

	parked, release := g.hold()
	if err := feeder.Append("s", nil, intCols(64, 2)); err != nil {
		t.Fatal(err)
	}
	<-parked // the writer is inside the first write of window 1
	if err := feeder.Append("s", nil, intCols(64, 2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both windows of every subscription to queue", func() bool {
		return srv.Stats().ResultFrames == 2*n
	})
	held, bytesHeld := len(g.written()), srv.Stats().BytesOut
	release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, sub := range subs {
		for want := 1; want <= 2; want++ {
			r, err := sub.Recv(ctx)
			if err != nil {
				t.Fatalf("subscription %d window %d: %v", i, want, err)
			}
			if r.Window != want {
				t.Fatalf("subscription %d: got window %d, want %d", i, r.Window, want)
			}
		}
	}
	further := len(g.written()) - held
	queued := srv.Stats().BytesOut - bytesHeld
	if max := int((queued+(1<<16)-1)>>16) + 1; further > max {
		t.Fatalf("%d bytes queued behind the held write left in %d writes, want at most %d", queued, further, max)
	}
}

// TestWriterSingleSubscriptionOneWritePerFrame pins the other side of the
// flush rule: with one subscription nothing waits — not for a sibling, not
// for a timer — so one frame is exactly one write.
func TestWriterSingleSubscriptionOneWritePerFrame(t *testing.T) {
	db := newIntDB(t)
	ln := newGateListener(t)
	_, addr := serveOn(t, db, Config{}, ln)
	cl, g := dialGated(t, ln, addr)
	sub, err := cl.Register(siblingStmt(0), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feeder, _ := dialGated(t, ln, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for want := 1; want <= 3; want++ {
		before := len(g.written())
		if err := feeder.Append("s", nil, intCols(64, 2)); err != nil {
			t.Fatal(err)
		}
		if r, err := sub.Recv(ctx); err != nil || r.Window != want {
			t.Fatalf("window %d: %v %v", want, r, err)
		}
		if got := len(g.written()) - before; got != 1 {
			t.Fatalf("window %d took %d writes, want 1", want, got)
		}
	}
}

// TestAckFlushesAheadOfQueuedResults: a control frame is flushed the moment
// the writer reaches it, not when the result frames queued behind it on the
// same connection have been copied too.
func TestAckFlushesAheadOfQueuedResults(t *testing.T) {
	db := newIntDB(t)
	ln := newGateListener(t)
	srv, addr := serveOn(t, db, Config{}, ln)
	cl, g := dialGated(t, ln, addr)
	sub, err := cl.Register(siblingStmt(0), RegisterOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	feeder, _ := dialGated(t, ln, addr)
	var c *conn
	for _, sc := range srv.connList() {
		if sc.c == net.Conn(g) {
			c = sc
		}
	}
	// outbox reports whether a control frame is queued and how many result
	// tokens sit behind it.
	outbox := func() (ctrl bool, behind int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, f := range c.out.items[c.out.head:] {
			switch {
			case f.m == nil:
				ctrl = true
			case ctrl:
				behind++
			}
		}
		return ctrl, behind
	}

	parked, release := g.hold()
	if err := feeder.Append("s", nil, intCols(64, 2)); err != nil {
		t.Fatal(err)
	}
	<-parked // window 1 is on its way out; the socket is busy
	held := len(g.written())
	ackDone := make(chan error, 1)
	go func() { ackDone <- cl.Append("s", nil, intCols(64, 2)) }()
	waitFor(t, "the append ack to queue", func() bool { ctrl, _ := outbox(); return ctrl })
	if err := feeder.Append("s", nil, intCols(64, 2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a result to queue behind the ack", func() bool { _, behind := outbox(); return behind > 0 })
	release()
	if err := <-ackDone; err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for want := 1; want <= 3; want++ {
		if r, err := sub.Recv(ctx); err != nil || r.Window != want {
			t.Fatalf("window %d: %v %v", want, r, err)
		}
	}
	ackWrite, resultAfter := -1, false
	for i, w := range g.written()[held:] {
		for len(w) > 0 {
			size := HeaderSize + int(binary.BigEndian.Uint32(w[:4]))
			switch typ := MsgType(w[4]); {
			case typ == MsgOK:
				ackWrite = i
				if size != len(w) {
					t.Fatalf("write %d carries %d bytes after the ack: it waited for the frames behind it", i, len(w)-size)
				}
			case typ == MsgResult && ackWrite >= 0:
				resultAfter = true
			}
			w = w[size:]
		}
	}
	if ackWrite < 0 || !resultAfter {
		t.Fatalf("ack in write %d, result in a later write: %v", ackWrite, resultAfter)
	}
}

// TestRequestDuringDrainKeepsOwedFrames: once a connection is ending, a
// request the client still sends gets no answer — and costs it nothing: the
// writer delivers every window owed and the BYE before the socket closes.
func TestRequestDuringDrainKeepsOwedFrames(t *testing.T) {
	db := newIntDB(t)
	ln := newGateListener(t)
	srv, addr := serveOn(t, db, Config{}, ln)
	nc, br := rawDial(t, addr)
	g := <-ln.accepted
	rawRegister(t, nc, 1, PolicyBlock, 64, siblingStmt(0))
	if typ, _, _, err := ReadFrame(br, nil); err != nil || typ != MsgSubscribed {
		t.Fatalf("register: type 0x%02x err %v", uint8(typ), err)
	}
	feeder, _ := dialGated(t, ln, addr)
	var c *conn
	for _, sc := range srv.connList() {
		if sc.c == net.Conn(g) {
			c = sc
		}
	}

	const windows = 5
	parked, release := g.hold()
	for w := 0; w < windows; w++ {
		if err := feeder.Append("s", nil, intCols(64, 2)); err != nil {
			t.Fatal(err)
		}
		if w == 0 {
			<-parked // window 1 is on its way out; the rest queue behind it
		}
	}
	waitFor(t, "the windows to queue", func() bool { return srv.Stats().ResultFrames == windows })
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	waitFor(t, "the drain to reach the connection", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closing != ""
	})
	if err := WriteFrame(nc, MsgPing, appendU32(nil, 2)); err != nil {
		t.Fatal(err)
	}
	// The feeder's reader ends with its connection, this one's with the ping.
	waitFor(t, "the reader to see the ping", func() bool { return goroutinesIn("serve.(*Server).handleConn") == 0 })
	release()

	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	for want := 1; want <= windows+1; want++ {
		typ, payload, _, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d of %d windows and a BYE: %v", want, windows, err)
		}
		if want > windows {
			if typ != MsgBye {
				t.Fatalf("after the windows: type 0x%02x, want BYE", uint8(typ))
			}
			break
		}
		if got := binary.BigEndian.Uint64(payload[4:]); typ != MsgResult || got != uint64(want) {
			t.Fatalf("frame %d: type 0x%02x window %d", want, uint8(typ), got)
		}
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.Stats().DisconnectsBy["drain"]; got != 2 {
		t.Errorf("%d connections ended by the drain, want 2", got)
	}
}

// TestPolicyDisconnectSaysBye: an evicted client whose socket still takes
// writes — it reads, just not fast enough for its one-frame queue — learns
// why it was dropped.
func TestPolicyDisconnectSaysBye(t *testing.T) {
	db := newIntDB(t)
	srv, addr := startServer(t, db, Config{})
	sub, err := dialT(t, addr).Register(`SELECT count(*) FROM s [RANGE 1 SLIDE 1]`,
		RegisterOptions{Policy: PolicyDisconnect, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	feeder := dialT(t, addr)
	stop := make(chan struct{})
	fed := make(chan error, 1)
	go func() { // bursts of 512 windows until the eviction
		for {
			select {
			case <-stop:
				fed <- nil
				return
			default:
			}
			if err := feeder.Append("s", nil, intCols(0, 512)); err != nil {
				fed <- err
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if _, err = sub.Recv(ctx); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if ferr := <-fed; ferr != nil {
		t.Fatal(ferr)
	}
	if !strings.Contains(err.Error(), "slow client (policy disconnect)") {
		t.Fatalf("evicted client saw %q, want the BYE reason", err)
	}
	waitFor(t, "the eviction to be counted", func() bool { return srv.Stats().DisconnectsBy["policy"] == 1 })
}

// bigWindow is one 64-row window of ev whose result frame is 64*(pad+~16)
// bytes: a few of them fill a loopback socket nobody reads.
func bigWindow(w, pad int) []*vector.Vector {
	tags := vector.New(vector.Str, 64)
	ns := vector.New(vector.Int64, 64)
	for i := 0; i < 64; i++ {
		tags.AppendStr(fmt.Sprintf("w%04d-%02d-%s", w, i, strings.Repeat("x", pad)))
		ns.AppendInt64(1)
	}
	return []*vector.Vector{tags, ns}
}

func newEvDB() *datacell.DB {
	db := datacell.New()
	db.MustRegisterStream("ev", datacell.Col("tag", datacell.String), datacell.Col("n", datacell.Int64))
	return db
}

// TestPolicyDisconnectClosesAnUnreadSocket: a client that never reads is
// evicted and its socket closed within the grace, BYE or no BYE, and the
// other subscriber of the same statement misses nothing.
func TestPolicyDisconnectClosesAnUnreadSocket(t *testing.T) {
	srv, addr := startServer(t, newEvDB(), Config{})
	const stmt = `SELECT tag, sum(n) FROM ev [RANGE 64 SLIDE 64] GROUP BY tag`
	raw, br := rawDial(t, addr)
	rawRegister(t, raw, 1, PolicyDisconnect, 1, stmt)
	if typ, _, _, err := ReadFrame(br, nil); err != nil || typ != MsgSubscribed {
		t.Fatalf("register: type 0x%02x err %v", uint8(typ), err)
	}
	healthy, err := dialT(t, addr).Register(stmt, RegisterOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	const windows = 120
	feeder := dialT(t, addr)
	fed := make(chan error, 1)
	go func() {
		for w := 0; w < windows; w++ {
			if err := feeder.Append("ev", nil, bigWindow(w, 1024)); err != nil {
				fed <- err
				return
			}
		}
		fed <- nil
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for want := 1; want <= windows; want++ {
		if r, err := healthy.Recv(ctx); err != nil || r.Window != want {
			t.Fatalf("healthy client at window %d: %v %v", want, r, err)
		}
	}
	if err := <-fed; err != nil {
		t.Fatalf("ingest stalled: %v", err)
	}
	waitFor(t, "the eviction", func() bool { return srv.Stats().DisconnectsBy["policy"] == 1 })
	// Only now does the client look at its socket: what was in flight, then
	// the server's close.
	raw.SetReadDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatalf("evicted socket not closed by the server: %v", err)
	}
}

// TestPolicyBlockStallsOnlyItsStatement: an unread Block-policy socket
// stalls the fanout of the statement it subscribes to — its queue never
// holds more than its buffer — while another statement's subscriber on
// another connection receives every window.
func TestPolicyBlockStallsOnlyItsStatement(t *testing.T) {
	srv, addr := startServer(t, newEvDB(), Config{})
	const (
		stalledStmt = `SELECT tag, sum(n) FROM ev [RANGE 64 SLIDE 64] GROUP BY tag`
		healthyStmt = `SELECT tag, count(*) FROM ev [RANGE 64 SLIDE 64] GROUP BY tag`
		buffer      = 2
	)
	raw, br := rawDial(t, addr)
	rawRegister(t, raw, 1, PolicyBlock, buffer, stalledStmt)
	if typ, _, _, err := ReadFrame(br, nil); err != nil || typ != MsgSubscribed {
		t.Fatalf("register: type 0x%02x err %v", uint8(typ), err)
	}
	var m *member
	srv.mu.Lock()
	for _, ss := range srv.shared {
		for _, sm := range ss.members {
			m = sm
		}
	}
	srv.mu.Unlock()
	healthy, err := dialT(t, addr).Register(healthyStmt, RegisterOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	feeder := dialT(t, addr)
	stop := make(chan struct{})
	fed := make(chan error, 1)
	go func() {
		for w := 0; ; w++ {
			select {
			case <-stop:
				fed <- nil
				return
			default:
			}
			if err := feeder.Append("ev", nil, bigWindow(w, 4096)); err != nil {
				fed <- err
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Receive until the unread socket has stalled its fanout, then 30
	// windows more: the stall is not contagious.
	after := 0
	for want := 1; after < 30; want++ {
		if want > 2000 {
			t.Fatal("the unread socket never stalled its statement")
		}
		if r, err := healthy.Recv(ctx); err != nil || r.Window != want {
			t.Fatalf("healthy client at window %d: %v %v", want, r, err)
		}
		m.c.mu.Lock()
		queued := m.q.len()
		m.c.mu.Unlock()
		if queued > buffer {
			t.Fatalf("blocked member queues %d frames, buffer is %d", queued, buffer)
		}
		if queued == buffer || after > 0 { // full: the writer is stuck in the socket, the fanout waits
			after++
		}
	}
	close(stop)
	if err := <-fed; err != nil {
		t.Fatalf("ingest stalled: %v", err)
	}
}

// goroutinesIn counts live goroutines with fn on their stack.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			// A frame is "pkg.fn(args"; the "created by pkg.fn in" line of a
			// child goroutine has no parenthesis after the name.
			return strings.Count(string(buf[:n]), fn+"(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestConnGoroutines is the accounting: a connection costs one reader and
// one writer however many subscriptions it holds, and closing the client,
// unsubscribing and shutting down leave no goroutine behind.
func TestConnGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	db := newIntDB(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	subs := make([]*Sub, n)
	for i := range subs {
		if subs[i], err = cl.Register(siblingStmt(i), RegisterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Append("s", nil, intCols(64, 2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, sub := range subs {
		if _, err := sub.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for fn, want := range map[string]int{
		"serve.(*Server).handleConn": 1,
		"serve.(*conn).writeLoop":    1,
		"serve.(*sharedSub).fanout":  n,
	} {
		if got := goroutinesIn(fn); got != want {
			t.Errorf("%d goroutines in %s, want %d", got, fn, want)
		}
	}
	for _, sub := range subs {
		if err := cl.Unsubscribe(sub); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkConnWriter drives the connection writer alone — no engine: one
// goroutine per subscription delivers a small frame per "slide", as the
// statement fanouts do, over loopback TCP to a reader that waits for the
// whole slide. It fails if sibling frames stop sharing writes or a lone
// subscription's frame stops being one prompt write.
func BenchmarkConnWriter(b *testing.B) {
	const slidesPerOp = 64
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			db := datacell.New()
			db.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := New(db, Config{})
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer nc.Close()
			br := bufio.NewReaderSize(nc, 1<<16)
			if err := WriteFrame(nc, MsgHello, append([]byte(Magic), ProtocolVersion)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i <= n; i++ { // the hello's OK, then one SUBSCRIBED each
				if i > 0 {
					reg := append(appendU32(nil, uint32(i)), byte(datacell.Incremental), byte(PolicyBlock))
					if err := WriteFrame(nc, MsgRegister, appendStr32(appendU32(reg, 0), siblingStmt(i))); err != nil {
						b.Fatal(err)
					}
				}
				if typ, _, _, err := ReadFrame(br, nil); err != nil || (typ != MsgOK && typ != MsgSubscribed) {
					b.Fatalf("setup frame %d: type 0x%02x err %v", i, uint8(typ), err)
				}
			}
			var members []*member
			srv.mu.Lock()
			for _, ss := range srv.shared {
				for _, m := range ss.members {
					members = append(members, m)
				}
			}
			srv.mu.Unlock()
			frame := make([]byte, 256) // about one agg_fanout result
			slide := make([]chan struct{}, n)
			var workers sync.WaitGroup
			for i, m := range members {
				slide[i] = make(chan struct{})
				workers.Add(1)
				go func(m *member, slide <-chan struct{}) {
					defer workers.Done()
					for range slide {
						m.ss.deliver(m, frame)
					}
				}(m, slide[i])
			}
			st0 := srv.Stats()
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N*slidesPerOp; i++ {
				for _, ch := range slide {
					ch <- struct{}{}
				}
				for f := 0; f < n; f++ {
					if _, _, buf, err = ReadFrame(br, buf); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := srv.Stats()
			frames := float64(st.ResultFrames - st0.ResultFrames)
			perWrite := frames / float64(st.SocketWrites-st0.SocketWrites)
			b.ReportMetric(perWrite, "frames/write")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
			if n == 1 && perWrite != 1 {
				b.Errorf("one subscription: %.2f frames/write, want exactly 1", perWrite)
			}
			if n > 1 && perWrite < 1.5 {
				b.Errorf("%d subscriptions: %.2f frames/write — the writer flushes per frame", n, perWrite)
			}
			for _, ch := range slide {
				close(ch)
			}
			workers.Wait()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				b.Fatal(err)
			}
			if err := <-served; err != nil {
				b.Fatal(err)
			}
		})
	}
}
