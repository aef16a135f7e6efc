package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datacell"
	"datacell/internal/vector"
)

// Policy selects a connection's slow-consumer behavior — the serving-tier
// extension of the engine's OverflowPolicy (Block, DropOldest) with one
// wire-only addition, Disconnect.
type Policy uint8

const (
	// PolicyBlock applies backpressure: the shared fanout blocks until
	// this connection's writer drains, which stalls the query step through
	// the engine-side Block subscription — SubOptions{OnOverflow: Block}
	// semantics carried to the wire consumer.
	PolicyBlock Policy = 0
	// PolicyDropOldest drops the oldest undelivered result frame — the
	// wire mapping of SubOptions{OnOverflow: DropOldest}: bounded
	// staleness, and a dead socket can never stall ingest or other
	// clients.
	PolicyDropOldest Policy = 1
	// PolicyDisconnect closes the connection when its queue is full: a
	// slow client is evicted (with a BYE when its socket still takes
	// writes) rather than slowed or fed stale results.
	PolicyDisconnect Policy = 2
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// SharedBuffer is the engine-side Subscribe buffer of each unique
	// statement's shared subscription (default 64).
	SharedBuffer int
	// DefaultClientBuffer is the per-connection result queue capacity used
	// when a Register asks for 0 (default 64).
	DefaultClientBuffer int
	// MaxClientBuffer caps the per-connection queue capacity a Register may
	// request (default 65536). The request is clamped, not rejected — the
	// field is client-supplied and must never size an allocation directly.
	MaxClientBuffer int
	// DrainTimeout bounds Shutdown's graceful phase when the caller's
	// context carries no deadline (default 5s).
	DrainTimeout time.Duration
}

func (c Config) sharedBuffer() int {
	if c.SharedBuffer > 0 {
		return c.SharedBuffer
	}
	return 64
}

func (c Config) clientBuffer(req int) int {
	if req <= 0 {
		if c.DefaultClientBuffer > 0 {
			req = c.DefaultClientBuffer
		} else {
			req = 64
		}
	}
	max := c.MaxClientBuffer
	if max <= 0 {
		max = 65536
	}
	if req > max {
		req = max
	}
	return req
}

// Stats is a point-in-time snapshot of the server's wire counters.
type Stats struct {
	// Conns and Subscriptions are current; the rest are cumulative.
	Conns, Subscriptions int
	// SharedQueries is the number of distinct interned statements.
	SharedQueries int
	Accepted      int64
	Disconnects   int64
	// DisconnectsBy splits Disconnects by why the connection ended: read
	// (EOF or a bad frame), write, policy (slow-client eviction), drain,
	// handshake, dispatch.
	DisconnectsBy map[string]int64
	// Encodes counts window results serialized; ResultFrames counts
	// frames delivered to connection queues. With N subscribers sharing a
	// statement, one window bumps Encodes once and ResultFrames N times.
	Encodes       int64
	ResultFrames  int64
	DroppedFrames int64
	// SocketWrites counts write calls on client sockets (one per reply, one
	// per batch of result frames) and BytesOut the bytes they took;
	// ResultFrames/SocketWrites is the writer's batching.
	SocketWrites int64
	BytesOut     int64
	AppendRows   int64
}

type serverStats struct {
	accepted                             atomic.Int64
	encodes, resultFrames, droppedFrames atomic.Int64
	socketWrites, bytesOut, appendRows   atomic.Int64
}

// Server multiplexes TCP clients onto one datacell.DB.
type Server struct {
	db  *datacell.DB
	cfg Config

	mu          sync.Mutex
	ln          net.Listener
	conns       map[*conn]struct{}
	shared      map[shareKey]*sharedSub
	disconnects map[string]int64 // by teardown reason class
	draining    bool
	closed      bool

	nextSub   atomic.Uint32
	nextQuery atomic.Int64

	wg    sync.WaitGroup // connection readers and writers, fanouts
	stats serverStats
}

// New wraps db in a Server. The caller starts it with Serve.
func New(db *datacell.DB, cfg Config) *Server {
	return &Server{
		db:          db,
		cfg:         cfg,
		conns:       map[*conn]struct{}{},
		shared:      map[shareKey]*sharedSub{},
		disconnects: map[string]int64{},
	}
}

// Serve accepts connections on ln until Shutdown. It starts the DB's
// concurrent scheduler (results must flow while clients merely read), and
// returns nil after a clean Shutdown or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("serve: server already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.db.Run()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.stats.accepted.Add(1)
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// Addr returns the bound listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stats snapshots the wire counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	conns := len(s.conns)
	queries := len(s.shared)
	subs := 0
	for _, ss := range s.shared {
		ss.mu.Lock()
		subs += len(ss.members)
		ss.mu.Unlock()
	}
	var disconnects int64
	by := make(map[string]int64, len(s.disconnects))
	for class, n := range s.disconnects {
		by[class] = n
		disconnects += n
	}
	s.mu.Unlock()
	return Stats{
		Conns:         conns,
		Subscriptions: subs,
		SharedQueries: queries,
		Accepted:      s.stats.accepted.Load(),
		Disconnects:   disconnects,
		DisconnectsBy: by,
		Encodes:       s.stats.encodes.Load(),
		ResultFrames:  s.stats.resultFrames.Load(),
		DroppedFrames: s.stats.droppedFrames.Load(),
		SocketWrites:  s.stats.socketWrites.Load(),
		BytesOut:      s.stats.bytesOut.Load(),
		AppendRows:    s.stats.appendRows.Load(),
	}
}

// QueryList renders the served continuous queries sorted by ID — the
// QUERIES listing, deterministic by construction.
func (s *Server) QueryList() string {
	s.mu.Lock()
	shared := make([]*sharedSub, 0, len(s.shared))
	for _, ss := range s.shared {
		shared = append(shared, ss)
	}
	s.mu.Unlock()
	sort.Slice(shared, func(i, j int) bool { return shared[i].seq < shared[j].seq })
	var sb strings.Builder
	for _, ss := range shared {
		ss.mu.Lock()
		n := len(ss.members)
		ss.mu.Unlock()
		st := ss.query.Stats()
		fp := ss.fp
		if fp == "" {
			fp = "-"
		}
		fmt.Fprintf(&sb, "%s [%s, %d windows, %d subscribers, fragment %s]: %s\n",
			ss.id, ss.query.Mode(), st.Windows, n, fp, ss.key.sql)
	}
	if sb.Len() == 0 {
		return "(no queries)\n"
	}
	return sb.String()
}

// --- shared subscriptions --------------------------------------------------

type shareKey struct {
	mode datacell.Mode
	sql  string
}

// sharedSub is one interned statement: a single engine query plus a
// single Subscribe channel whose results are encoded once and fanned to
// every attached connection.
type sharedSub struct {
	srv    *Server
	key    shareKey
	id     string
	seq    int64
	query  *datacell.Query
	fp     string
	cancel context.CancelFunc
	done   chan struct{} // closed when the fanout goroutine exits

	mu      sync.Mutex
	members map[uint32]*member
	retired bool
}

// member is one connection's attachment to a sharedSub: a bounded queue of
// undelivered frames (the wire-level SubOptions{Buffer, OnOverflow}) that
// the statement's fanout fills and the connection's writer empties.
type member struct {
	id     uint32
	c      *conn
	ss     *sharedSub
	policy Policy
	limit  int          // capacity of q
	q      fifo[[]byte] // guarded by c.mu, as is acked
	acked  bool         // SUBSCRIBED is in the outbox; only then do q's frames enter it
}

// fifo is a slice-backed queue; pop reclaims the consumed half as it goes,
// so a queue that never quite drains does not grow.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	if q.head++; 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v, true
}

// register interns (mode, sql) and attaches c, creating the engine query
// and fanout on first use.
func (s *Server) register(c *conn, sql string, mode datacell.Mode, policy Policy, buffer int) (*member, string, error) {
	key := shareKey{mode: mode, sql: normalizeStmt(sql)}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil, "", errors.New("serve: server is draining")
	}
	ss := s.shared[key]
	var results <-chan *datacell.Result // set when ss is new: its fan-out is still to start
	if ss == nil {
		// A matching query recovered from the data directory resumes —
		// replay backlog and all — instead of registering a duplicate.
		q := s.db.AdoptRecovered(key.sql, mode)
		if q == nil {
			var err error
			q, err = s.db.Register(key.sql, datacell.Options{Mode: mode})
			if err != nil {
				s.mu.Unlock()
				return nil, "", err
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		ch, err := q.Subscribe(ctx, datacell.SubOptions{Buffer: s.cfg.sharedBuffer()})
		if err != nil {
			cancel()
			q.Close()
			s.mu.Unlock()
			return nil, "", err
		}
		seq := s.nextQuery.Add(1)
		ss = &sharedSub{
			srv:     s,
			key:     key,
			id:      fmt.Sprintf("s%d", seq),
			seq:     seq,
			query:   q,
			fp:      q.Fingerprint(),
			cancel:  cancel,
			done:    make(chan struct{}),
			members: map[uint32]*member{},
		}
		s.shared[key] = ss
		results = ch
	}
	m := &member{
		id:     s.nextSub.Add(1),
		c:      c,
		ss:     ss,
		policy: policy,
		limit:  s.cfg.clientBuffer(buffer),
	}
	// Attach to the connection and the statement in one c.mu section, gated
	// on the closing mark: either the connection's teardown finds the member
	// in c.subs and detaches it, or it came first and nothing is attached —
	// never a member the statement holds and no connection reaches. All under
	// s.mu still: retire takes it before marking, so an entry found in the map
	// above cannot retire underneath us, and once the member is in it sees
	// len(members) > 0 and bails. Lock order: s.mu, c.mu, ss.mu.
	c.mu.Lock()
	attached := c.closing == ""
	if attached {
		c.subs[m.id] = m
		ss.mu.Lock()
		ss.members[m.id] = m
		ss.mu.Unlock()
	}
	c.mu.Unlock()
	if results != nil {
		// Start a new statement's fan-out only now that its first member is
		// in: an adopted recovered query replays its backlog the moment the
		// fan-out reads the channel, and windows fanned out to an empty
		// member set would be lost.
		s.wg.Add(1)
		go ss.fanout(results)
	}
	s.mu.Unlock()
	if !attached {
		s.retire(ss) // no-op unless ss is memberless, as a new one is
		return nil, "", errConnClosed
	}
	// The fanout fills m.q from here on; the frames enter the outbox only
	// behind the MsgSubscribed the caller queues, so none can overtake it.
	return m, ss.fp, nil
}

// detach removes m from its sharedSub, retiring the shared engine query
// when the last member leaves.
func (s *Server) detach(m *member) {
	ss := m.ss
	ss.mu.Lock()
	_, present := ss.members[m.id]
	delete(ss.members, m.id)
	empty := len(ss.members) == 0
	ss.mu.Unlock()
	if present && empty {
		s.retire(ss)
	}
}

// retire tears one sharedSub down unless a member re-attached meanwhile.
// Lock order is s.mu then ss.mu everywhere.
func (s *Server) retire(ss *sharedSub) {
	s.mu.Lock()
	ss.mu.Lock()
	if ss.retired || len(ss.members) > 0 {
		ss.mu.Unlock()
		s.mu.Unlock()
		return
	}
	ss.retired = true
	if s.shared[ss.key] == ss {
		delete(s.shared, ss.key)
	}
	ss.mu.Unlock()
	s.mu.Unlock()
	ss.cancel()
	ss.query.Close()
}

// encodeSharedResult serializes the statement-shared part of a result
// frame (everything after the per-member subID): window number, emit
// wall-clock, step latency, and the columnar block.
func encodeSharedResult(r *datacell.Result) []byte {
	b := make([]byte, 0, 64+16*len(r.Table.Cols)*(1+r.Table.NumRows()))
	b = appendU64(b, uint64(r.Window))
	b = appendI64(b, time.Now().UnixMicro())
	b = appendI64(b, int64(r.Latency))
	return AppendTable(b, r.Table)
}

// fanout consumes the shared subscription channel: one encode per window,
// then per-member delivery under each member's policy. It exits when the
// channel closes (retire or drain), after delivering everything buffered.
func (ss *sharedSub) fanout(ch <-chan *datacell.Result) {
	defer ss.srv.wg.Done()
	defer close(ss.done)
	var snapshot []*member
	for r := range ch {
		shared := encodeSharedResult(r)
		ss.srv.stats.encodes.Add(1)
		ss.mu.Lock()
		snapshot = snapshot[:0]
		for _, m := range ss.members {
			snapshot = append(snapshot, m)
		}
		ss.mu.Unlock()
		for _, m := range snapshot {
			ss.deliver(m, shared)
		}
	}
}

// deliver queues one frame for m under its slow-consumer policy. The frame
// bytes are shared across members — queues hold references, never copies.
func (ss *sharedSub) deliver(m *member, shared []byte) {
	c, st := m.c, &ss.srv.stats
	c.mu.Lock()
	defer c.mu.Unlock()
	for m.policy == PolicyBlock && m.q.len() >= m.limit && m.live() {
		c.moved.Wait() // only this statement's fanout stalls
	}
	switch full := m.q.len() >= m.limit; {
	case !m.live():
		return
	case full && m.policy == PolicyDisconnect:
		// An evicted client is owed the reason and nothing queued; a socket that
		// takes no bytes within evictGrace fails the write and closes untold.
		const why = "slow client (policy disconnect)"
		c.out, c.replies = fifo[outFrame]{}, 0
		c.finish("policy: "+why, MsgBye, appendStr32(nil, why))
		_ = c.c.SetWriteDeadline(time.Now().Add(evictGrace))
		return
	case full: // PolicyDropOldest: the dropped frame's outbox token now stands for the next-oldest
		m.q.pop()
		st.droppedFrames.Add(1)
	case m.acked:
		c.out.push(outFrame{m: m})
		c.moved.Broadcast()
	}
	m.q.push(shared)
	st.resultFrames.Add(1)
}

// live: m is subscribed and its connection not ending. Caller holds c.mu.
func (m *member) live() bool { return m.c.closing == "" && m.c.subs[m.id] == m }

// --- connections -----------------------------------------------------------

// conn is one client connection: handleConn reads it, writeLoop alone writes
// it. Everything bound for the socket — dispatch's control frames and a token
// per queued result frame — enters out in arrival order.
type conn struct {
	srv  *Server
	c    net.Conn
	bw   *bufio.Writer        // over conn.Write; writeLoop's alone, as is hdr
	hdr  [HeaderSize + 4]byte // result-header scratch
	once sync.Once
	gone chan struct{} // closed by teardown

	mu      sync.Mutex
	subs    map[uint32]*member
	out     fifo[outFrame]
	replies int       // control frames in out
	closing string    // first "class: detail" reason the conn ends for; once set nothing new is accepted
	moved   sync.Cond // on mu: a frame entered or left the outbox, a member left, or closing was set
}

// outFrame is one outbox entry: a control frame (t, b), or with m set a
// token for the oldest frame in m.q.
type outFrame struct {
	m *member
	t MsgType
	b []byte
}

const (
	// maxQueuedControl bounds a connection's unwritten replies: a client that
	// pipelines requests and never reads the answers stalls its own reader.
	maxQueuedControl = 16
	// evictGrace is what an evicted socket gets to take the BYE in.
	evictGrace = time.Second
)

var errConnClosed = errors.New("serve: connection closed")

// Write is the only path to the socket (bw wraps the conn, not c.c), so the
// wire counters see what actually left.
func (c *conn) Write(p []byte) (int, error) {
	c.srv.stats.socketWrites.Add(1)
	n, err := c.c.Write(p)
	c.srv.stats.bytesOut.Add(int64(n))
	return n, err
}

func (c *conn) send(t MsgType, payload []byte) error { return c.sendAck(t, payload, nil) }

// sendAck queues a control frame behind whatever the outbox holds. For m's
// MsgSubscribed, the same critical section lets m's frames in behind it.
func (c *conn) sendAck(t MsgType, payload []byte, m *member) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.replies >= maxQueuedControl && c.closing == "" {
		c.moved.Wait()
	}
	if c.closing != "" {
		return errConnClosed
	}
	c.replies++
	c.out.push(outFrame{t: t, b: payload})
	if m != nil {
		m.acked = true
		for i := m.q.len(); i > 0; i-- {
			c.out.push(outFrame{m: m})
		}
	}
	c.moved.Broadcast()
	return nil
}

// writeLoop owns the socket. It copies frames into bw as they become ready
// and flushes when the outbox is empty, so frames queued close together
// leave in one write. A control frame flushes at once, whatever is queued
// behind it. With sibling subscriptions on the connection it yields once
// before flushing results: the statements' fanouts emit the same slide
// microseconds apart. Closing, with everything owed out, it tears down.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	yielded := false
	for {
		c.mu.Lock()
		for c.out.len() == 0 && c.bw.Buffered() == 0 && c.closing == "" {
			c.moved.Wait()
		}
		f, ok := c.out.pop()
		if ok {
			if f.m == nil {
				c.replies--
			} else {
				f.b, _ = f.m.q.pop() // a token always has its frame
			}
			c.moved.Broadcast()
		}
		siblings, closing := len(c.subs) > 1, c.closing
		c.mu.Unlock()
		var err error
		switch {
		case ok && f.m != nil:
			err = c.writeResult(f.m.id, f.b)
		case ok:
			if err = WriteFrame(c.bw, f.t, f.b); err == nil {
				err = c.bw.Flush()
			}
			yielded = false
		case c.bw.Buffered() == 0:
			c.teardown(closing)
			return
		case siblings && !yielded:
			yielded = true
			runtime.Gosched()
		default:
			err = c.bw.Flush()
			yielded = false
		}
		if err != nil {
			c.teardown("write: " + err.Error())
			return
		}
	}
}

// writeResult buffers a result frame as subID + the shared bytes — the
// only copy of the window payload is the one every member references.
func (c *conn) writeResult(subID uint32, shared []byte) error {
	if 4+len(shared) > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(c.hdr[:4], uint32(4+len(shared)))
	c.hdr[4] = byte(MsgResult)
	binary.BigEndian.PutUint32(c.hdr[5:], subID)
	if _, err := c.bw.Write(c.hdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(shared)
	return err
}

// finish is the orderly end; the caller holds c.mu. Nothing new is accepted
// from here: writeLoop writes what the outbox holds, this farewell, and
// tears down.
func (c *conn) finish(reason string, t MsgType, payload []byte) {
	if c.closing != "" {
		return
	}
	c.closing = reason
	c.replies++
	c.out.push(outFrame{t: t, b: payload})
	c.moved.Broadcast()
}

// teardown closes the connection now and detaches its subscriptions. It is
// idempotent and takes only c.mu, which writeLoop never holds across a write:
// closing the socket is what unblocks a writer stuck on a dead one.
func (c *conn) teardown(reason string) {
	c.once.Do(func() {
		c.mu.Lock()
		if c.closing == "" {
			c.closing = reason
		}
		class, _, _ := strings.Cut(c.closing, ":")
		subs := c.subs
		c.subs = nil // read-only from here: register is gated on closing
		c.moved.Broadcast()
		c.mu.Unlock()
		close(c.gone)
		c.c.Close()
		for _, m := range subs {
			c.srv.detach(m)
		}
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.disconnects[class]++
		c.srv.mu.Unlock()
	})
}

// handleConn is one connection's reader goroutine: handshake, then a
// frame dispatch loop until EOF, protocol error, or teardown.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		srv:  s,
		c:    nc,
		gone: make(chan struct{}),
		subs: map[uint32]*member{},
	}
	c.bw, c.moved.L = bufio.NewWriterSize(c, 1<<16), &c.mu
	s.wg.Add(1)
	go c.writeLoop()
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		c.mu.Lock()
		c.finish("drain: refused", MsgBye, appendStr32(nil, "server is draining"))
		c.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	br := bufio.NewReaderSize(nc, 1<<16)
	var buf []byte
	// Handshake first: anything else is a protocol error.
	t, payload, buf, err := ReadFrame(br, buf)
	if err != nil || t != MsgHello || len(payload) != len(Magic)+1 ||
		string(payload[:len(Magic)]) != Magic || payload[len(Magic)] != ProtocolVersion {
		c.mu.Lock()
		c.finish("handshake: bad hello", MsgError, encodeError(0, "serve: bad handshake"))
		c.mu.Unlock()
		return
	}
	if err := c.send(MsgOK, encodeOK(0, "datacell")); err != nil {
		return
	}
	for {
		t, payload, buf, err = ReadFrame(br, buf)
		if err != nil {
			c.teardown("read: " + err.Error())
			return
		}
		if err := s.dispatch(c, t, payload); err != nil {
			// On errConnClosed the writer still owes the client the outbox.
			if !errors.Is(err, errConnClosed) {
				c.teardown("dispatch: " + err.Error())
			}
			return
		}
	}
}

func encodeOK(seq uint32, detail string) []byte {
	return appendStr32(appendU32(nil, seq), detail)
}

func encodeError(seq uint32, msg string) []byte {
	return appendStr32(appendU32(nil, seq), msg)
}

// dispatch executes one client frame. A returned error ends the reader: a
// malformed frame is fatal for the connection, errConnClosed means it is
// ending already; per-request failures go back as MsgError.
func (s *Server) dispatch(c *conn, t MsgType, payload []byte) error {
	r := &byteReader{b: payload}
	seq := r.u32()
	if r.err != nil {
		return r.err
	}
	switch t {
	case MsgPing:
		return c.send(MsgOK, encodeOK(seq, "pong"))

	case MsgQueries:
		return c.send(MsgOK, encodeOK(seq, s.QueryList()))

	case MsgStmt:
		sql := r.str32()
		if r.err != nil {
			return r.err
		}
		detail, tbl, err := ExecStatement(s.db, sql)
		switch {
		case err != nil:
			return c.send(MsgError, encodeError(seq, err.Error()))
		case tbl != nil:
			return c.send(MsgTable, AppendTable(appendU32(nil, seq), tbl))
		default:
			return c.send(MsgOK, encodeOK(seq, detail))
		}

	case MsgRegister:
		mode := datacell.Mode(r.u8())
		policy := Policy(r.u8())
		buffer := int(r.u32())
		sql := r.str32()
		if r.err != nil {
			return r.err
		}
		if mode > datacell.Auto {
			return c.send(MsgError, encodeError(seq, fmt.Sprintf("serve: unknown mode %d", mode)))
		}
		if policy > PolicyDisconnect {
			return c.send(MsgError, encodeError(seq, fmt.Sprintf("serve: unknown policy %d", policy)))
		}
		m, fp, err := s.register(c, sql, mode, policy, buffer)
		if err != nil {
			return c.send(MsgError, encodeError(seq, err.Error()))
		}
		out := appendU32(appendU32(nil, seq), m.id)
		return c.sendAck(MsgSubscribed, appendStr32(out, fp), m)

	case MsgUnsubscribe:
		subID := r.u32()
		if r.err != nil {
			return r.err
		}
		c.mu.Lock()
		m := c.subs[subID]
		delete(c.subs, subID)
		c.moved.Broadcast() // a Block deliver may be waiting on m
		c.mu.Unlock()
		if m == nil {
			return c.send(MsgError, encodeError(seq, fmt.Sprintf("serve: unknown subscription %d", subID)))
		}
		s.detach(m)
		return c.send(MsgOK, encodeOK(seq, "unsubscribed"))

	case MsgAppend:
		kind := r.u8()
		target := r.str32()
		if r.err != nil {
			return r.err
		}
		blk, err := decodeBlock(r)
		if err != nil {
			return err
		}
		if r.rest() != 0 {
			return fmt.Errorf("serve: %d trailing bytes after append block", r.rest())
		}
		var aerr error
		switch kind {
		case 0:
			aerr = s.appendStream(target, blk)
		case 1:
			aerr = s.insertTable(target, blk)
		default:
			aerr = fmt.Errorf("serve: unknown append kind %d", kind)
		}
		if aerr != nil {
			return c.send(MsgError, encodeError(seq, aerr.Error()))
		}
		s.stats.appendRows.Add(int64(blk.NumRows()))
		return c.send(MsgOK, encodeOK(seq, fmt.Sprintf("%d rows", blk.NumRows())))

	default:
		return fmt.Errorf("serve: unexpected message type 0x%02x", uint8(t))
	}
}

// appendStream feeds a decoded block into a stream through the public
// Batch path: typed bulk appends, no per-value boxing. Empty block
// column names map positionally onto the stream schema.
func (s *Server) appendStream(stream string, blk *Block) error {
	b, err := s.db.NewBatch(stream)
	if err != nil {
		return err
	}
	defs := b.Columns()
	if len(blk.Cols) != len(defs) {
		return fmt.Errorf("serve: stream %q wants %d columns, block has %d", stream, len(defs), len(blk.Cols))
	}
	for i, col := range blk.Cols {
		name := blk.Names[i]
		if name == "" {
			name = defs[i].Name
		}
		var want datacell.Type
		found := false
		for _, d := range defs {
			if d.Name == name {
				want, found = d.Type, true
				break
			}
		}
		if !found {
			return fmt.Errorf("serve: stream %q has no column %q", stream, name)
		}
		if col.Type() != want && !(vector.IntKind(col.Type()) && vector.IntKind(want)) {
			return fmt.Errorf("serve: column %q is %s, block sends %s", name, want, col.Type())
		}
		switch want {
		case datacell.Int64:
			b.Int64Col(name).AppendSlice(col.Int64s())
		case datacell.Timestamp:
			b.TimestampCol(name).AppendSlice(col.Int64s())
		case datacell.Float64:
			b.Float64Col(name).AppendSlice(col.Float64s())
		case datacell.String:
			b.StringCol(name).AppendSlice(col.Strs())
		case datacell.Bool:
			b.BoolCol(name).AppendSlice(col.Bools())
		}
	}
	return s.db.AppendBatch(stream, b)
}

// insertTable inserts a decoded block into a persistent table (cold path:
// boxed rows).
func (s *Server) insertTable(table string, blk *Block) error {
	n := blk.NumRows()
	rows := make([][]datacell.Value, n)
	for i := 0; i < n; i++ {
		row := make([]datacell.Value, len(blk.Cols))
		for c, col := range blk.Cols {
			row[c] = col.Get(i)
		}
		rows[i] = row
	}
	return s.db.InsertRows(table, rows...)
}

// --- shutdown --------------------------------------------------------------

func (s *Server) connList() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// Shutdown drains the server: stop accepting, halt the scheduler, flush
// owed windows through the shared subscriptions, let each connection's
// writer empty its outbox, send its BYE frame and close. The graceful phase
// is bounded by ctx (or Config.DrainTimeout when ctx has no deadline); past
// the bound, connections are force-closed. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	ln := s.ln
	shared := make([]*sharedSub, 0, len(s.shared))
	for _, ss := range s.shared {
		shared = append(shared, ss)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		timeout := s.cfg.DrainTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var pumpErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Flush owed windows: halt the workers, then one synchronous pump
		// fires every window the buffered data still owes. Results flow
		// through the live fanouts to the clients.
		s.db.Stop()
		if _, err := s.db.Pump(); err != nil {
			pumpErr = err
		}
		// End the shared subscriptions; their channels close once the
		// buffered results are consumed, so each fanout delivers
		// everything before exiting.
		for _, ss := range shared {
			ss.query.Close()
		}
		for _, ss := range shared {
			<-ss.done
			ss.cancel()
		}
		// Every frame owed is in an outbox now: detach the members and let
		// each writer empty its outbox, say goodbye and close.
		conns := s.connList()
		for _, c := range conns {
			c.mu.Lock()
			c.finish("drain: server draining", MsgBye, appendStr32(nil, "server draining"))
			c.mu.Unlock()
		}
		for _, c := range conns {
			<-c.gone
		}
	}()

	select {
	case <-done:
		s.wg.Wait()
		return pumpErr
	case <-ctx.Done():
		// Force: close every socket and detach every member — this
		// unblocks stuck writes, Block-policy fanout waits, and the
		// synchronous pump above.
		for _, c := range s.connList() {
			c.teardown("drain: timeout")
		}
		for _, ss := range shared {
			ss.cancel()
		}
		<-done
		s.wg.Wait()
		if pumpErr != nil {
			return pumpErr
		}
		return ctx.Err()
	}
}
