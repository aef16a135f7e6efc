package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell"
	"datacell/internal/vector"
)

// startServer boots a server on a loopback port and returns it with the
// address. Shutdown runs in cleanup unless the test shut it down itself.
func startServer(t *testing.T, db *datacell.DB, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, db, cfg, ln)
}

// serveOn is startServer over a listener the test supplies.
func serveOn(t *testing.T, db *datacell.DB, cfg Config, ln net.Listener) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// intCols builds a two-int-column batch [x1=i, x2=1] for n rows.
func intCols(start, n int) []*vector.Vector {
	a := vector.New(vector.Int64, n)
	b := vector.New(vector.Int64, n)
	for i := 0; i < n; i++ {
		a.AppendInt64(int64(start + i))
		b.AppendInt64(1)
	}
	return []*vector.Vector{a, b}
}

func newIntDB(t *testing.T) *datacell.DB {
	t.Helper()
	db := datacell.New()
	db.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
	return db
}

func TestServeEndToEnd(t *testing.T) {
	db := datacell.New()
	_, addr := startServer(t, db, Config{})
	cl := dialT(t, addr)

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// DDL over the wire.
	if _, _, err := cl.Stmt("CREATE STREAM s (x1 BIGINT, x2 BIGINT)"); err != nil {
		t.Fatal(err)
	}
	// A bad statement comes back as a request error, not a dead connection.
	if _, _, err := cl.Stmt("DROP EVERYTHING"); err == nil {
		t.Fatal("bad statement accepted")
	}
	sub, err := cl.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Append("s", nil, intCols(0, 6)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for want := 1; want <= 3; want++ {
		r, err := sub.Recv(ctx)
		if err != nil {
			t.Fatalf("window %d: %v", want, err)
		}
		if r.Window != want {
			t.Fatalf("got window %d, want %d", r.Window, want)
		}
		if r.Table.NumRows() != 1 || r.Table.Cols[0].Get(0) != datacell.Int(2) {
			t.Fatalf("window %d: bad table %v", want, r.Table)
		}
	}
	// One-shot SELECT over a persistent table round-trips as a block.
	if _, _, err := cl.Stmt("CREATE TABLE dim (k BIGINT, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	names := vector.New(vector.Str, 2)
	names.AppendStr("a")
	names.AppendStr("b")
	keys := vector.New(vector.Int64, 2)
	keys.AppendInt64(1)
	keys.AppendInt64(2)
	if err := cl.InsertTable("dim", nil, []*vector.Vector{keys, names}); err != nil {
		t.Fatal(err)
	}
	_, tbl, err := cl.Stmt("SELECT k, name FROM dim")
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || tbl.NumRows() != 2 {
		t.Fatalf("one-shot select: %v", tbl)
	}
	// QUERIES listing includes the registered statement.
	listing, err := cl.Queries()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(listing, "count(*)") || !strings.HasPrefix(listing, "s1 ") {
		t.Fatalf("listing: %q", listing)
	}
}

// TestServeSharedEncode pins the fanout contract: N subscribers to the
// same statement cost one engine query and one encode per window, while
// every subscriber still gets its own frame.
func TestServeSharedEncode(t *testing.T) {
	db := newIntDB(t)
	srv, addr := startServer(t, db, Config{})

	const clients = 8
	const windows = 5
	subs := make([]*Sub, clients)
	for i := range subs {
		cl := dialT(t, addr)
		sub, err := cl.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, RegisterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	feeder := dialT(t, addr)
	if err := feeder.Append("s", []string{"x1", "x2"}, intCols(0, 2*windows)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, sub := range subs {
		for want := 1; want <= windows; want++ {
			r, err := sub.Recv(ctx)
			if err != nil {
				t.Fatalf("client %d window %d: %v", i, want, err)
			}
			if r.Window != want {
				t.Fatalf("client %d: got window %d, want %d", i, r.Window, want)
			}
		}
	}
	st := srv.Stats()
	if st.SharedQueries != 1 {
		t.Fatalf("SharedQueries = %d, want 1 (identical statements must intern)", st.SharedQueries)
	}
	if st.Subscriptions != clients {
		t.Fatalf("Subscriptions = %d, want %d", st.Subscriptions, clients)
	}
	if st.Encodes != windows {
		t.Fatalf("Encodes = %d, want %d (one serialize per window, shared)", st.Encodes, windows)
	}
	if st.ResultFrames != int64(clients*windows) {
		t.Fatalf("ResultFrames = %d, want %d", st.ResultFrames, clients*windows)
	}
	// Same SQL but different whitespace still shares; a different window
	// spec does not.
	cl := dialT(t, addr)
	if _, err := cl.Register("SELECT  count(*)  FROM s [RANGE 2 SLIDE 2]", RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Register(`SELECT count(*) FROM s [RANGE 4 SLIDE 2]`, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.SharedQueries != 2 {
		t.Fatalf("SharedQueries = %d, want 2", st.SharedQueries)
	}
}

// TestServeSlowClientNeverStallsOthers is the acceptance-criterion test: a
// client that registers with DropOldest and then never reads its socket
// must not stall ingest or any other client. String-heavy results make
// each frame large enough to fill the dead client's socket buffers.
func TestServeSlowClientNeverStallsOthers(t *testing.T) {
	db := datacell.New()
	db.MustRegisterStream("ev", datacell.Col("tag", datacell.String), datacell.Col("n", datacell.Int64))
	srv, addr := startServer(t, db, Config{})

	const stmt = `SELECT tag, sum(n) FROM ev [RANGE 64 SLIDE 64] GROUP BY tag`

	// The slow client speaks the protocol by hand: handshake, register with
	// DropOldest and a 1-frame queue, then never touch the socket again.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	hello := append([]byte(Magic), ProtocolVersion)
	if err := WriteFrame(raw, MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := ReadFrame(raw, nil); err != nil || typ != MsgOK {
		t.Fatalf("handshake: type %d err %v", typ, err)
	}
	reg := appendU32(nil, 1)
	reg = append(reg, byte(datacell.Incremental), byte(PolicyDropOldest))
	reg = appendU32(reg, 1)
	reg = appendStr32(reg, stmt)
	if err := WriteFrame(raw, MsgRegister, reg); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := ReadFrame(raw, nil); err != nil || typ != MsgSubscribed {
		t.Fatalf("register: type %d err %v", typ, err)
	}
	// From here on the slow client is a black hole.

	healthy := dialT(t, addr)
	sub, err := healthy.Register(stmt, RegisterOptions{Policy: PolicyBlock, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Sustained ingest: 64 distinct ~1KiB tags per window, 120 windows —
	// several MiB of result frames, far beyond loopback socket buffering.
	const windows = 120
	feeder := dialT(t, addr)
	pad := strings.Repeat("x", 1024)
	ingestDone := make(chan error, 1)
	go func() {
		for w := 0; w < windows; w++ {
			tags := vector.New(vector.Str, 64)
			ns := vector.New(vector.Int64, 64)
			for i := 0; i < 64; i++ {
				tags.AppendStr(fmt.Sprintf("w%03d-%02d-%s", w, i, pad))
				ns.AppendInt64(1)
			}
			if err := feeder.Append("ev", nil, []*vector.Vector{tags, ns}); err != nil {
				ingestDone <- err
				return
			}
		}
		ingestDone <- nil
	}()

	// The healthy client must see every window in order, while the dead
	// socket accumulates drops.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for want := 1; want <= windows; want++ {
		r, err := sub.Recv(ctx)
		if err != nil {
			t.Fatalf("healthy client stalled at window %d: %v", want, err)
		}
		if r.Window != want {
			t.Fatalf("healthy client: got window %d, want %d", r.Window, want)
		}
		if r.Table.NumRows() != 64 {
			t.Fatalf("window %d: %d rows", want, r.Table.NumRows())
		}
	}
	if err := <-ingestDone; err != nil {
		t.Fatalf("ingest stalled: %v", err)
	}
	if st := srv.Stats(); st.DroppedFrames == 0 {
		t.Fatalf("expected dropped frames for the unread DropOldest client, stats %+v", st)
	}
}

// TestServeManyClientsChurn runs clients that connect, subscribe,
// receive, unsubscribe and disconnect mid-stream while ingest continues.
func TestServeManyClientsChurn(t *testing.T) {
	db := newIntDB(t)
	srv, addr := startServer(t, db, Config{})

	stmts := []string{
		`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`,
		`SELECT count(*) FROM s [RANGE 4 SLIDE 2]`,
		`SELECT x1, sum(x2) FROM s [RANGE 6 SLIDE 2] GROUP BY x1`,
	}
	stop := make(chan struct{})
	ingestDone := make(chan error, 1)
	go func() {
		feeder, err := Dial(addr)
		if err != nil {
			ingestDone <- err
			return
		}
		defer feeder.Close()
		for i := 0; ; i += 2 {
			select {
			case <-stop:
				ingestDone <- nil
				return
			default:
			}
			if err := feeder.Append("s", nil, intCols(i%10, 2)); err != nil {
				ingestDone <- err
				return
			}
		}
	}()

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			sub, err := cl.Register(stmts[i%len(stmts)], RegisterOptions{
				Policy: Policy(i % 2), // mix Block and DropOldest
				Buffer: 4,
			})
			if err != nil {
				errs <- err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			last := 0
			for n := 0; n < 5+i%7; n++ {
				r, err := sub.Recv(ctx)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if r.Window <= last {
					errs <- fmt.Errorf("client %d: window %d after %d", i, r.Window, last)
					return
				}
				last = r.Window
			}
			if i%3 == 0 {
				// Explicit unsubscribe, then the connection lingers.
				if err := cl.Unsubscribe(sub); err != nil {
					errs <- fmt.Errorf("client %d unsubscribe: %w", i, err)
					return
				}
				if err := cl.Ping(); err != nil {
					errs <- fmt.Errorf("client %d ping after unsub: %w", i, err)
				}
			}
			// Other clients just Close (teardown path detaches).
		}(i)
	}
	wg.Wait()
	close(stop)
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every client is gone: subscriptions drain to zero and the shared
	// queries retire.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Subscriptions == 0 && st.SharedQueries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shared state never retired: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeGracefulDrain checks Shutdown flushes owed windows: results
// buffered inside the engine reach subscribers before the BYE.
func TestServeGracefulDrain(t *testing.T) {
	db := newIntDB(t)
	srv, addr := startServer(t, db, Config{})
	cl := dialT(t, addr)
	sub, err := cl.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, RegisterOptions{Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Append("s", nil, intCols(0, 8)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// All four owed windows must have been flushed to the client.
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	for want := 1; want <= 4; want++ {
		r, err := sub.Recv(rctx)
		if err != nil {
			t.Fatalf("window %d after drain: %v", want, err)
		}
		if r.Window != want {
			t.Fatalf("got window %d, want %d", r.Window, want)
		}
	}
	// Then the subscription ends (server closed).
	if _, err := sub.Recv(rctx); err == nil {
		t.Fatal("recv after drain should fail")
	}
	// New connections are refused while down.
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
}

// TestRegisterBufferClamped sends a raw MsgRegister asking for a
// 0xFFFFFFFF-slot queue: the client-supplied field must be clamped, never
// used directly as a channel capacity (a ~100 GB allocation).
func TestRegisterBufferClamped(t *testing.T) {
	cfg := Config{}
	if got := cfg.clientBuffer(int(uint32(0xFFFFFFFF))); got != 65536 {
		t.Fatalf("huge request clamped to %d, want 65536", got)
	}
	if got := cfg.clientBuffer(0); got != 64 {
		t.Fatalf("zero request got %d, want default 64", got)
	}
	if got := (Config{MaxClientBuffer: 8, DefaultClientBuffer: 100}).clientBuffer(0); got != 8 {
		t.Fatalf("default above max got %d, want 8", got)
	}

	db := newIntDB(t)
	_, addr := startServer(t, db, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	if err := WriteFrame(bw, MsgHello, append([]byte(Magic), ProtocolVersion)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if tp, _, _, err := ReadFrame(br, nil); err != nil || tp != MsgOK {
		t.Fatalf("handshake: type 0x%02x err %v", uint8(tp), err)
	}
	b := appendU32(nil, 1) // seq
	b = append(b, byte(datacell.Incremental), byte(PolicyBlock))
	b = appendU32(b, 0xFFFFFFFF)
	b = appendStr32(b, `SELECT count(*) FROM s [RANGE 2 SLIDE 2]`)
	if err := WriteFrame(bw, MsgRegister, b); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	tp, _, _, err := ReadFrame(br, nil)
	if err != nil || tp != MsgSubscribed {
		t.Fatalf("register with huge buffer: type 0x%02x err %v", uint8(tp), err)
	}
}

// TestRecoveredReplayReachesFirstSubscriber pins the register/fan-out
// order: a statement that adopts a RECOVERED query starts replaying its
// backlog the moment its fan-out goroutine runs, so the registering
// connection must already be a member by then. The first frame on the wire
// has to be the first replayed window and the sequence gap-free. The race
// window on the server is the member's construction — the large requested
// queue widens it — hence the loop. (The client has the mirror-image
// obligation: attach the subscription before reading the frame after the
// acknowledgement.) Odd iterations read the wire by hand: the
// acknowledgement itself must precede the backlog's first frame.
func TestRecoveredReplayReachesFirstSubscriber(t *testing.T) {
	const sql = `SELECT count(*) FROM s [RANGE 4 SLIDE 4]`
	const windows = 16
	for iter := 0; iter < 40; iter++ {
		t.Run(fmt.Sprint(iter), func(t *testing.T) {
			dir := t.TempDir()
			db, err := datacell.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			db.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
			if _, err := db.Register(sql, datacell.Options{}); err != nil {
				t.Fatal(err)
			}
			rows := make([][]datacell.Value, 4*windows)
			for i := range rows {
				rows[i] = []datacell.Value{datacell.Int(int64(i)), datacell.Int(1)}
			}
			if err := db.Append("s", rows...); err != nil {
				t.Fatal(err)
			}
			// The standing query is still registered: Close leaves it in the
			// manifest, as a crash would.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db, err = datacell.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			if len(db.RecoveredQueries()) != 1 {
				t.Fatalf("recovered %d queries, want 1", len(db.RecoveredQueries()))
			}
			if _, err := db.Pump(); err != nil { // replay: the backlog now sits buffered
				t.Fatal(err)
			}
			_, addr := startServer(t, db, Config{})
			if iter%2 == 1 {
				nc, br := rawDial(t, addr)
				rawRegister(t, nc, 1, PolicyBlock, 65536, sql)
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				for want := 0; want <= windows; want++ {
					typ, payload, _, err := ReadFrame(br, nil)
					if err != nil {
						t.Fatalf("frame %d: %v", want, err)
					}
					if want == 0 {
						if typ != MsgSubscribed {
							t.Fatalf("first frame is 0x%02x, want the SUBSCRIBED acknowledgement", uint8(typ))
						}
						continue
					}
					if got := binary.BigEndian.Uint64(payload[4:]); typ != MsgResult || got != uint64(want) {
						t.Fatalf("frame %d: type 0x%02x window %d", want, uint8(typ), got)
					}
				}
				return
			}
			sub, err := dialT(t, addr).Register(sql, RegisterOptions{Buffer: 65536})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for want := 1; want <= windows; want++ {
				r, err := sub.Recv(ctx)
				if err != nil {
					t.Fatalf("window %d: %v", want, err)
				}
				if r.Window != want {
					t.Fatalf("received window %d, want %d: replayed windows lost", r.Window, want)
				}
			}
		})
	}
}

// TestRegisterAfterTeardownDetaches pins the register/teardown race: a
// registration that loses the race against connection teardown must be
// detached (and its sharedSub retired), not leaked as an unreachable
// member that would wedge a Block-policy fanout forever.
func TestRegisterAfterTeardownDetaches(t *testing.T) {
	db := newIntDB(t)
	srv := New(db, Config{})
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := &conn{
		srv:  srv,
		c:    p1,
		bw:   bufio.NewWriter(p1),
		gone: make(chan struct{}),
		subs: map[uint32]*member{},
	}
	srv.mu.Lock()
	srv.conns[c] = struct{}{}
	srv.mu.Unlock()
	c.teardown("test")
	if _, _, err := srv.register(c, `SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, datacell.Incremental, PolicyBlock, 0); err == nil {
		t.Fatal("register on a torn-down conn succeeded")
	}
	srv.mu.Lock()
	leaked := len(srv.shared)
	srv.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d sharedSubs leaked after dead-conn register", leaked)
	}
	srv.wg.Wait() // the fanout goroutine exits once the query retires
}

// TestClientCloseDuringDelivery races Close against in-flight result
// delivery to a full subscription channel. The reader goroutine is the
// sole closer of sub.ch; a fail path that closed it could panic with
// "send on closed channel" under this load.
func TestClientCloseDuringDelivery(t *testing.T) {
	db := newIntDB(t)
	_, addr := startServer(t, db, Config{})
	for i := 0; i < 8; i++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := cl.Register(`SELECT count(*) FROM s [RANGE 1 SLIDE 1]`, RegisterOptions{Buffer: 1, Policy: PolicyDropOldest})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Append("s", nil, intCols(0, 64)); err != nil {
			t.Fatal(err)
		}
		// Let one result land (the 1-slot channel fills behind it), then
		// close while the server keeps delivering.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, rerr := sub.Recv(ctx)
		cancel()
		if rerr != nil {
			t.Fatal(rerr)
		}
		go cl.Close()
		for { // drain until terminal; must end in an error, never a panic
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err := sub.Recv(ctx)
			cancel()
			if err != nil {
				break
			}
		}
		cl.Close()
	}
}

func TestServeRejectsBadHandshake(t *testing.T) {
	db := datacell.New()
	_, addr := startServer(t, db, Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := WriteFrame(raw, MsgHello, []byte("BOGUS")); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := ReadFrame(raw, nil)
	if err != nil || typ != MsgError {
		t.Fatalf("want MsgError, got type %d err %v", typ, err)
	}
	// The server closes after a failed handshake.
	if _, _, _, err := ReadFrame(raw, nil); err == nil {
		t.Fatal("connection should be closed")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	db := newIntDB(t)
	srv, addr := startServer(t, db, Config{})
	cl := dialT(t, addr)
	sub, err := cl.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Append("s", nil, intCols(0, 4)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for want := 1; want <= 2; want++ {
		if _, err := sub.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A client that came and went: one disconnect, of class read.
	gone, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()
	waitFor(t, "the closed client's disconnect", func() bool { return srv.Stats().Disconnects == 1 })
	if st := srv.Stats(); st.SocketWrites < 4 || st.SocketWrites > 6 {
		// Two hello OKs, SUBSCRIBED, the append ack, and the two windows in
		// one write or two.
		t.Errorf("SocketWrites = %d, want 4..6", st.SocketWrites)
	}
	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"datacell_ingest_seconds_total",
		"datacell_serve_connections 1",
		"datacell_serve_subscriptions 1",
		"datacell_serve_shared_queries 1",
		"datacell_serve_result_encodes_total 2",
		"datacell_serve_result_frames_total 2",
		"datacell_serve_socket_writes_total ",
		"datacell_serve_disconnects_total 1",
		`datacell_serve_disconnects_by_class_total{class="read"} 1`,
		`datacell_serve_disconnects_by_class_total{class="policy"} 0`,
		`datacell_query_info{query="s1"`,
		`datacell_query_windows_total{query="s1"} 2`,
		`stage="fragment"`,
		`outcome="delivered"`,
		`datacell_stream_durable{stream="s"} 0`,
		`datacell_stream_segments{stream="s",residency="resident"}`,
		`datacell_stream_segment_files{stream="s"} 0`,
		`datacell_stream_resident_bytes{stream="s"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	// On disk, the file count follows the stream's segment files: a
	// registered query pins every sealed one, plus the open tail.
	ddb, err := datacell.OpenConfig(t.TempDir(), datacell.StoreConfig{SealRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ddb.Close()
	ddb.MustRegisterStream("s", datacell.Col("x1", datacell.Int64), datacell.Col("x2", datacell.Int64))
	if _, err := ddb.Register(`SELECT count(*) FROM s [RANGE 2 SLIDE 2]`, datacell.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := ddb.Append("s", []datacell.Value{datacell.Int(int64(i)), datacell.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	dts := httptest.NewServer(New(ddb, Config{}).MetricsHandler())
	defer dts.Close()
	resp, err = dts.Client().Get(dts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if raw, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if want := `datacell_stream_segment_files{stream="s"} 4`; !strings.Contains(string(raw), want) {
		t.Errorf("durable metrics missing %q\n%s", want, raw)
	}
}
