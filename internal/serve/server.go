package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
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
	// slow client is evicted rather than slowed or fed stale results.
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
	// Encodes counts window results serialized; ResultFrames counts
	// frames delivered to connection queues. With N subscribers sharing a
	// statement, one window bumps Encodes once and ResultFrames N times.
	Encodes       int64
	ResultFrames  int64
	DroppedFrames int64
	BytesOut      int64
	AppendRows    int64
}

type serverStats struct {
	accepted, disconnects                atomic.Int64
	encodes, resultFrames, droppedFrames atomic.Int64
	bytesOut, appendRows                 atomic.Int64
}

// Server multiplexes TCP clients onto one datacell.DB.
type Server struct {
	db  *datacell.DB
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	shared   map[shareKey]*sharedSub
	draining bool
	closed   bool

	nextSub   atomic.Uint32
	nextQuery atomic.Int64

	wg    sync.WaitGroup // readers, pumps, fanouts
	stats serverStats
}

// New wraps db in a Server. The caller starts it with Serve.
func New(db *datacell.DB, cfg Config) *Server {
	return &Server{
		db:     db,
		cfg:    cfg,
		conns:  map[*conn]struct{}{},
		shared: map[shareKey]*sharedSub{},
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
	s.mu.Unlock()
	return Stats{
		Conns:         conns,
		Subscriptions: subs,
		SharedQueries: queries,
		Accepted:      s.stats.accepted.Load(),
		Disconnects:   s.stats.disconnects.Load(),
		Encodes:       s.stats.encodes.Load(),
		ResultFrames:  s.stats.resultFrames.Load(),
		DroppedFrames: s.stats.droppedFrames.Load(),
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

// member is one connection's attachment to a sharedSub: a bounded frame
// queue (the wire-level SubOptions{Buffer, OnOverflow}) plus the pump
// goroutine that owns its socket writes.
type member struct {
	id       uint32
	c        *conn
	ss       *sharedSub
	policy   Policy
	queue    chan []byte
	gone     chan struct{}
	goneOnce sync.Once
	pumpDone chan struct{}
}

func (m *member) detachSignal() { m.goneOnce.Do(func() { close(m.gone) }) }

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
		id:       s.nextSub.Add(1),
		c:        c,
		ss:       ss,
		policy:   policy,
		queue:    make(chan []byte, s.cfg.clientBuffer(buffer)),
		gone:     make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	// Insert the member while still holding s.mu: retire takes s.mu before
	// marking, so an entry found in the map here cannot retire underneath
	// us, and once the member is in it sees len(members) > 0 and bails.
	ss.mu.Lock()
	ss.members[m.id] = m
	ss.mu.Unlock()
	if results != nil {
		// Start a new statement's fan-out only now that its first member is
		// in: an adopted recovered query replays its backlog the moment the
		// fan-out reads the channel, and windows fanned out to an empty
		// member set would be lost.
		s.wg.Add(1)
		go ss.fanout(results)
	}
	s.mu.Unlock()
	// Attach to the connection last, gated on the dead flag: teardown can
	// fire concurrently from another subscription's pump (write failure) or
	// a policy disconnect. Either teardown's sweep sees the member in
	// c.subs and detaches it, or it ran first and marked the conn dead —
	// then we detach here, so a post-teardown registration can never leak
	// into the sharedSub as an unreachable Block-policy member.
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		s.detach(m)
		return nil, "", errors.New("serve: connection closed")
	}
	c.subs[m.id] = m
	c.mu.Unlock()
	// The caller starts the pump after writing the MsgSubscribed response,
	// so the first result frame can never overtake the acknowledgement on
	// the wire; the queue buffers anything the fanout delivers meanwhile.
	return m, ss.fp, nil
}

// startPump launches m's writer goroutine.
func (s *Server) startPump(m *member) {
	s.wg.Add(1)
	go m.pump()
}

// detach removes m from its sharedSub, retiring the shared engine query
// when the last member leaves.
func (s *Server) detach(m *member) {
	m.detachSignal()
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

// deliver applies one member's slow-consumer policy. The frame bytes are
// shared across members — queues hold references, never copies.
func (ss *sharedSub) deliver(m *member, shared []byte) {
	st := &ss.srv.stats
	switch m.policy {
	case PolicyBlock:
		select {
		case m.queue <- shared:
			st.resultFrames.Add(1)
		case <-m.gone:
		}
	case PolicyDropOldest:
		for {
			select {
			case m.queue <- shared:
				st.resultFrames.Add(1)
				return
			default:
			}
			select {
			case <-m.queue: // drop the oldest queued frame, retry
				st.droppedFrames.Add(1)
			default:
			}
			select {
			case <-m.gone:
				return
			default:
			}
		}
	case PolicyDisconnect:
		select {
		case m.queue <- shared:
			st.resultFrames.Add(1)
		default:
			m.c.teardown("slow client (policy disconnect)")
		}
	}
}

// pump forwards queued result frames onto the member's socket. After the
// detach signal it flushes whatever is still queued (the graceful-drain
// path) and exits.
func (m *member) pump() {
	defer m.ss.srv.wg.Done()
	defer close(m.pumpDone)
	for {
		select {
		case shared := <-m.queue:
			if err := m.c.writeResult(m.id, shared); err != nil {
				m.c.teardown("write failed: " + err.Error())
				return
			}
		case <-m.gone:
			for {
				select {
				case shared := <-m.queue:
					if m.c.writeResult(m.id, shared) != nil {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// --- connections -----------------------------------------------------------

type conn struct {
	srv  *Server
	c    net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	once sync.Once
	gone chan struct{}

	mu   sync.Mutex
	subs map[uint32]*member
	dead bool // set by teardown; register refuses attachments after it
}

// writeFrame serializes one control frame onto the socket.
func (c *conn) writeFrame(t MsgType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := WriteFrame(c.bw, t, payload); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.srv.stats.bytesOut.Add(int64(HeaderSize + len(payload)))
	return nil
}

// writeResult writes a result frame as subID + the shared bytes — the
// only copy of the window payload is the one every member references.
func (c *conn) writeResult(subID uint32, shared []byte) error {
	if 4+len(shared) > MaxFrame {
		return ErrFrameTooLarge
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [HeaderSize + 4]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(4+len(shared)))
	hdr[4] = byte(MsgResult)
	binary.BigEndian.PutUint32(hdr[5:], subID)
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(shared); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.srv.stats.bytesOut.Add(int64(len(hdr) + len(shared)))
	return nil
}

// teardown closes the connection and detaches its subscriptions. It is
// idempotent and never takes wmu, so a writer blocked on a dead socket
// cannot wedge it — closing the socket is what unblocks that writer.
func (c *conn) teardown(reason string) {
	c.once.Do(func() {
		_ = reason
		close(c.gone)
		c.c.Close()
		c.mu.Lock()
		c.dead = true
		subs := make([]*member, 0, len(c.subs))
		for _, m := range c.subs {
			subs = append(subs, m)
		}
		c.subs = map[uint32]*member{}
		c.mu.Unlock()
		for _, m := range subs {
			c.srv.detach(m)
		}
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.srv.stats.disconnects.Add(1)
	})
}

// drainAndClose is the graceful variant: detach subscriptions, let the
// pumps flush their queues, say goodbye, then close.
func (c *conn) drainAndClose(reason string) {
	c.mu.Lock()
	subs := make([]*member, 0, len(c.subs))
	for _, m := range c.subs {
		subs = append(subs, m)
	}
	c.mu.Unlock()
	for _, m := range subs {
		m.detachSignal()
	}
	for _, m := range subs {
		<-m.pumpDone
	}
	c.writeFrame(MsgBye, appendStr32(nil, reason))
	c.teardown(reason)
}

// handleConn is one connection's reader goroutine: handshake, then a
// frame dispatch loop until EOF, protocol error, or teardown.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		srv:  s,
		c:    nc,
		bw:   bufio.NewWriterSize(nc, 1<<16),
		gone: make(chan struct{}),
		subs: map[uint32]*member{},
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		c.writeFrame(MsgBye, appendStr32(nil, "server is draining"))
		nc.Close()
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
		c.writeFrame(MsgError, encodeError(0, "serve: bad handshake"))
		c.teardown("bad handshake")
		return
	}
	if err := c.writeFrame(MsgOK, encodeOK(0, "datacell")); err != nil {
		c.teardown("handshake write failed")
		return
	}
	for {
		t, payload, buf, err = ReadFrame(br, buf)
		if err != nil {
			c.teardown("read: " + err.Error())
			return
		}
		if err := s.dispatch(c, t, payload); err != nil {
			c.teardown("dispatch: " + err.Error())
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

// dispatch executes one client frame. A returned error is fatal for the
// connection (malformed frame); per-request failures go back as MsgError.
func (s *Server) dispatch(c *conn, t MsgType, payload []byte) error {
	r := &byteReader{b: payload}
	seq := r.u32()
	if r.err != nil {
		return r.err
	}
	switch t {
	case MsgPing:
		return c.writeFrame(MsgOK, encodeOK(seq, "pong"))

	case MsgQueries:
		return c.writeFrame(MsgOK, encodeOK(seq, s.QueryList()))

	case MsgStmt:
		sql := r.str32()
		if r.err != nil {
			return r.err
		}
		detail, tbl, err := ExecStatement(s.db, sql)
		switch {
		case err != nil:
			return c.writeFrame(MsgError, encodeError(seq, err.Error()))
		case tbl != nil:
			return c.writeFrame(MsgTable, AppendTable(appendU32(nil, seq), tbl))
		default:
			return c.writeFrame(MsgOK, encodeOK(seq, detail))
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
			return c.writeFrame(MsgError, encodeError(seq, fmt.Sprintf("serve: unknown mode %d", mode)))
		}
		if policy > PolicyDisconnect {
			return c.writeFrame(MsgError, encodeError(seq, fmt.Sprintf("serve: unknown policy %d", policy)))
		}
		m, fp, err := s.register(c, sql, mode, policy, buffer)
		if err != nil {
			return c.writeFrame(MsgError, encodeError(seq, err.Error()))
		}
		out := appendU32(appendU32(nil, seq), m.id)
		werr := c.writeFrame(MsgSubscribed, appendStr32(out, fp))
		s.startPump(m) // after the ack: result frames never overtake it
		return werr

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
			return c.writeFrame(MsgError, encodeError(seq, fmt.Sprintf("serve: unknown subscription %d", subID)))
		}
		s.detach(m)
		return c.writeFrame(MsgOK, encodeOK(seq, "unsubscribed"))

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
			return c.writeFrame(MsgError, encodeError(seq, aerr.Error()))
		}
		s.stats.appendRows.Add(int64(blk.NumRows()))
		return c.writeFrame(MsgOK, encodeOK(seq, fmt.Sprintf("%d rows", blk.NumRows())))

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

// Shutdown drains the server: stop accepting, halt the scheduler, flush
// owed windows through the shared subscriptions, let writer pumps empty
// their queues, send BYE frames and close. The graceful phase is bounded
// by ctx (or Config.DrainTimeout when ctx has no deadline); past the
// bound, connections are force-closed. Safe to call more than once.
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
		// Detach members (pumps flush their queues), say goodbye, close.
		s.mu.Lock()
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		var cwg sync.WaitGroup
		for _, c := range conns {
			cwg.Add(1)
			go func(c *conn) {
				defer cwg.Done()
				c.drainAndClose("server draining")
			}(c)
		}
		cwg.Wait()
	}()

	select {
	case <-done:
		s.wg.Wait()
		return pumpErr
	case <-ctx.Done():
		// Force: close every socket and detach every member — this
		// unblocks stuck writes, Block-policy fanout sends, and the
		// synchronous pump above.
		s.mu.Lock()
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.teardown("drain timeout")
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
