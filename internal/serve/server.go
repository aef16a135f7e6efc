package serve

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datacell"
	"datacell/internal/vector"
)

// Policy selects a subscription's slow-consumer behavior: the overflow
// policy of its cursor on the statement's result log (see
// datacell.OverflowPolicy), applied when a window is appended. Block
// stalls only that query's step until the writer catches up; DropOldest
// skips the oldest unsent frame, so a dead socket never stalls ingest or
// other clients; Disconnect evicts the connection, with a BYE naming the
// reason when its socket still takes writes.
type Policy uint8

// The wire policies, numbered as datacell's.
const (
	PolicyBlock      = Policy(datacell.Block)
	PolicyDropOldest = Policy(datacell.DropOldest)
	PolicyDisconnect = Policy(datacell.Disconnect)
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// DefaultClientBuffer is a subscription's buffer — how many frames it
	// may lag — when a Register asks for 0 (default 64).
	DefaultClientBuffer int
	// MaxClientBuffer caps the buffer a Register may request (default
	// 65536). The request is clamped, not rejected — the field is
	// client-supplied.
	MaxClientBuffer int
	// DrainTimeout bounds Shutdown's graceful phase when the caller's
	// context carries no deadline (default 5s).
	DrainTimeout time.Duration
}

func (c Config) clientBuffer(req int) int {
	if req <= 0 {
		req = cmp.Or(max(c.DefaultClientBuffer, 0), 64)
	}
	return min(req, cmp.Or(max(c.MaxClientBuffer, 0), 65536))
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
	// windows logged for subscriptions. With N subscribers sharing a
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
	closed      bool             // Shutdown began: no new connections or subscriptions

	nextSub   atomic.Uint32
	nextQuery atomic.Int64

	wg    sync.WaitGroup // connection readers and writers
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
			stopping := s.closed
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
		subs += ss.subscribers()
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
	var sb strings.Builder
	for _, ss := range s.sharedList() {
		st := ss.query.Stats()
		fp := ss.fp
		if fp == "" {
			fp = "-"
		}
		fmt.Fprintf(&sb, "%s [%s, %d windows, %d subscribers, fragment %s]: %s\n",
			ss.id, ss.query.Mode(), st.Windows, ss.subscribers(), fp, ss.key.sql)
	}
	if sb.Len() == 0 {
		return "(no queries)\n"
	}
	return sb.String()
}

// sharedList returns the interned statements sorted by ID.
func (s *Server) sharedList() []*sharedSub {
	s.mu.Lock()
	shared := make([]*sharedSub, 0, len(s.shared))
	for _, ss := range s.shared {
		shared = append(shared, ss)
	}
	s.mu.Unlock()
	sort.Slice(shared, func(i, j int) bool { return shared[i].seq < shared[j].seq })
	return shared
}

// --- shared subscriptions --------------------------------------------------

type shareKey struct {
	mode datacell.Mode
	sql  string
}

// sharedSub is one interned statement: a single engine query whose result
// log every attached subscription reads through its own cursor.
type sharedSub struct {
	key   shareKey
	id    string
	seq   int64
	query *datacell.Query
	fp    string

	mu      sync.Mutex
	members map[uint32]*member
	retired bool
}

func (ss *sharedSub) subscribers() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.members)
}

// member is one connection's subscription to a sharedSub: a cursor on the
// statement's result log, with the wire-level {buffer, policy} as the
// cursor's limit and policy. The connection's writer takes its frames.
type member struct {
	id     uint32
	c      *conn
	ss     *sharedSub
	cur    *datacell.Cursor
	acked  bool // SUBSCRIBED is in the outbox; only then may frames follow. Guarded by c.mu, as is queued.
	queued bool // in c.ready
}

// register interns (mode, sql) and attaches c, creating the engine query on
// first use.
func (s *Server) register(c *conn, sql string, mode datacell.Mode, policy Policy, buffer int) (*member, string, error) {
	key := shareKey{mode: mode, sql: normalizeStmt(sql)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, "", errors.New("serve: server is draining")
	}
	ss := s.shared[key]
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
		seq := s.nextQuery.Add(1)
		ss = &sharedSub{
			key:     key,
			id:      fmt.Sprintf("s%d", seq),
			seq:     seq,
			query:   q,
			fp:      q.Fingerprint(),
			members: map[uint32]*member{},
		}
		s.shared[key] = ss
	}
	m := &member{id: s.nextSub.Add(1), c: c, ss: ss}
	// Attach to the connection and the statement in one c.mu section, gated
	// on the closing mark: either the connection's teardown finds the member
	// in c.subs and detaches it, or it came first and nothing is attached —
	// never a cursor no connection reads. All under s.mu still: retire takes
	// it before marking, so an entry found above cannot retire underneath us.
	c.mu.Lock()
	attached := c.closing == ""
	if attached {
		m.cur = ss.query.Tap(datacell.CursorOptions{
			Limit:   s.cfg.clientBuffer(buffer),
			Policy:  datacell.OverflowPolicy(policy),
			Wake:    m.wake,
			Evict:   m.evict,
			Dropped: &s.stats.droppedFrames,
		})
		c.subs[m.id] = m
		ss.mu.Lock()
		ss.members[m.id] = m
		ss.mu.Unlock()
	}
	c.mu.Unlock()
	s.mu.Unlock()
	if !attached {
		s.retire(ss) // no-op unless ss is memberless, as a new one is
		return nil, "", errConnClosed
	}
	return m, ss.fp, nil
}

// detach closes m's cursor and removes m from its sharedSub, retiring the
// shared engine query when the last member leaves.
func (s *Server) detach(m *member) {
	m.cur.Close()
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
	ss.query.Close()
}

// encode serializes the statement-shared part of a result frame
// (everything after the per-member subID): window number, emit wall-clock,
// step latency, and the columnar block. The log calls it once per window
// per statement, for the first cursor that takes the window.
func (s *Server) encode(r *datacell.Result) []byte {
	s.stats.encodes.Add(1)
	// Reserve the exact frame: window, emit time, latency, the block
	// header (rows, columns), then per column its type, name and payload.
	n := 8 + 8 + 8 + 4 + 2
	for i, col := range r.Table.Cols {
		n += 1 + 2 + len(r.Table.Names[i]) + vector.PayloadLen(col)
	}
	b := make([]byte, 0, n)
	b = appendU64(b, uint64(r.Window))
	b = appendI64(b, time.Now().UnixMicro())
	b = appendI64(b, int64(r.Latency))
	return AppendTable(b, r.Table)
}

// wake is m's cursor hook: a window landed for m — a result frame, which
// once m is acknowledged puts it on the writer's ready list. The log calls
// it without its lock held.
func (m *member) wake() {
	m.c.srv.stats.resultFrames.Add(1)
	m.c.mu.Lock()
	m.readyLocked()
	m.c.mu.Unlock()
}

// readyLocked queues m for the writer unless it is queued already or not
// yet acknowledged. Caller holds c.mu.
func (m *member) readyLocked() {
	if m.acked && !m.queued {
		m.queued = true
		m.c.ready = append(m.c.ready, m)
		m.c.moved.Broadcast()
	}
}

// evict is the Disconnect hook, run by the appending step once m's cursor
// overflowed. An evicted client is owed the reason and nothing queued: its
// other cursors close too, so the writer's next frame is the BYE, which a
// socket taking no bytes within evictGrace never gets.
func (m *member) evict() {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing != "" {
		return
	}
	for _, o := range c.subs {
		o.cur.Close()
	}
	const why = "slow client (policy disconnect)"
	c.out = nil
	c.finish("policy: "+why, MsgBye, appendStr32(nil, why))
	_ = c.c.SetWriteDeadline(time.Now().Add(evictGrace))
}

// --- connections -----------------------------------------------------------

// conn is one client connection: handleConn reads it, writeLoop alone writes
// it. Control frames wait in out; result frames stay in the members'
// cursors until the writer takes them, members with frames waiting in ready.
type conn struct {
	srv  *Server
	c    net.Conn
	bw   *bufio.Writer        // over conn.Write; writeLoop's alone, as is hdr
	hdr  [HeaderSize + 4]byte // result-header scratch
	once sync.Once
	gone chan struct{} // closed by teardown

	mu      sync.Mutex
	subs    map[uint32]*member
	out     []outFrame // control frames
	ready   []*member
	closing string    // first "class: detail" reason the conn ends for; once set nothing new is accepted
	bye     outFrame  // written once closing and nothing else is owed
	moved   sync.Cond // on mu: the outbox or ready list changed, or closing was set
}

// outFrame is one control frame.
type outFrame struct {
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

// sendAck queues a control frame. For m's MsgSubscribed, the same critical
// section lets m's frames follow it: the writer takes control frames first.
func (c *conn) sendAck(t MsgType, payload []byte, m *member) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.out) >= maxQueuedControl && c.closing == "" {
		c.moved.Wait()
	}
	if c.closing != "" {
		return errConnClosed
	}
	c.out = append(c.out, outFrame{t: t, b: payload})
	c.moved.Broadcast()
	if m != nil {
		m.acked = true
		m.readyLocked() // for the frames logged meanwhile, if any
	}
	return nil
}

// writeLoop owns the socket. A control frame is written and flushed at
// once. Otherwise it takes one frame from the next ready member into bw,
// and flushes when no member is ready, so frames that become ready close
// together leave in one write. With sibling subscriptions on the
// connection it yields once before flushing results: the statements' steps
// emit the same slide microseconds apart. Closing, with every frame owed
// out, it writes the farewell and tears down.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	yielded := false
	var again *member // took a frame last round and has more
	for {
		c.mu.Lock()
		if again != nil {
			again.readyLocked()
			again = nil
		}
		for len(c.out) == 0 && len(c.ready) == 0 && c.bw.Buffered() == 0 && c.closing == "" {
			c.moved.Wait()
		}
		var f outFrame
		var m *member
		ctrl := len(c.out) > 0
		if ctrl {
			f, c.out = c.out[0], c.out[1:]
			c.moved.Broadcast()
		} else if len(c.ready) > 0 {
			m, c.ready = c.ready[0], c.ready[1:]
			m.queued = false
		}
		siblings, closing, bye := len(c.subs) > 1, c.closing, c.bye
		c.mu.Unlock()
		var err error
		switch {
		case ctrl:
			if err = WriteFrame(c.bw, f.t, f.b); err == nil {
				err = c.bw.Flush()
			}
			yielded = false
		case m != nil:
			if frame, more, ok := m.cur.Next(c.srv.encode); ok {
				err = c.writeResult(m.id, frame)
				if more {
					again = m
				}
			}
		case c.bw.Buffered() == 0:
			if bye.t != 0 {
				if err = WriteFrame(c.bw, bye.t, bye.b); err == nil {
					err = c.bw.Flush()
				}
			}
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
// from here: writeLoop writes the control frames queued, the result frames
// the cursors still owe, this farewell, and tears down.
func (c *conn) finish(reason string, t MsgType, payload []byte) {
	if c.closing != "" {
		return
	}
	c.closing = reason
	c.bye = outFrame{t: t, b: payload}
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
	if s.closed {
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
		c.finish("handshake: bad hello", MsgError, encodeReply(0, "serve: bad handshake"))
		c.mu.Unlock()
		return
	}
	if err := c.send(MsgOK, encodeReply(0, "datacell")); err != nil {
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

// encodeReply is the payload of MsgOK and MsgError: u32 seq | str text.
func encodeReply(seq uint32, text string) []byte {
	return appendStr32(appendU32(nil, seq), text)
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
		return c.send(MsgOK, encodeReply(seq, "pong"))

	case MsgQueries:
		return c.send(MsgOK, encodeReply(seq, s.QueryList()))

	case MsgStmt:
		sql := r.str32()
		if r.err != nil {
			return r.err
		}
		detail, tbl, err := ExecStatement(s.db, sql)
		switch {
		case err != nil:
			return c.send(MsgError, encodeReply(seq, err.Error()))
		case tbl != nil:
			return c.send(MsgTable, AppendTable(appendU32(nil, seq), tbl))
		default:
			return c.send(MsgOK, encodeReply(seq, detail))
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
			return c.send(MsgError, encodeReply(seq, fmt.Sprintf("serve: unknown mode %d", mode)))
		}
		if policy > PolicyDisconnect {
			return c.send(MsgError, encodeReply(seq, fmt.Sprintf("serve: unknown policy %d", policy)))
		}
		m, fp, err := s.register(c, sql, mode, policy, buffer)
		if err != nil {
			return c.send(MsgError, encodeReply(seq, err.Error()))
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
		c.mu.Unlock()
		if m == nil {
			return c.send(MsgError, encodeReply(seq, fmt.Sprintf("serve: unknown subscription %d", subID)))
		}
		s.detach(m)
		return c.send(MsgOK, encodeReply(seq, "unsubscribed"))

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
			return c.send(MsgError, encodeReply(seq, aerr.Error()))
		}
		s.stats.appendRows.Add(int64(blk.NumRows()))
		return c.send(MsgOK, encodeReply(seq, fmt.Sprintf("%d rows", blk.NumRows())))

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
	used := make([]bool, len(defs))
	for i, col := range blk.Cols {
		name := blk.Names[i]
		if name == "" {
			name = defs[i].Name
		}
		j := slices.IndexFunc(defs, func(d datacell.ColumnDef) bool { return d.Name == name })
		if j < 0 {
			return fmt.Errorf("serve: stream %q has no column %q", stream, name)
		}
		if used[j] {
			return fmt.Errorf("serve: block names column %q twice", name)
		}
		used[j] = true
		want := defs[j].Type
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

// Shutdown drains the server: stop accepting, halt the scheduler, pump the
// windows the buffered data still owes into the result logs, then let each
// connection's writer take what its cursors owe, send its BYE frame and
// close. The graceful phase is bounded by ctx (or Config.DrainTimeout when
// ctx has no deadline); past the bound, connections are force-closed.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
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
		s.db.Stop()
		if _, err := s.db.Pump(); err != nil {
			pumpErr = err
		}
		// Every window owed is in a log now: each writer takes what its
		// cursors hold, says goodbye and closes; the last member of each
		// statement retires its query.
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
		// Force: close every socket and detach every member — this unblocks
		// stuck writes and a pump stalled on a Block cursor.
		for _, c := range s.connList() {
			c.teardown("drain: timeout")
		}
		<-done
		s.wg.Wait()
		if pumpErr != nil {
			return pumpErr
		}
		return ctx.Err()
	}
}
