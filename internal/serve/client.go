package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"datacell"
	"datacell/internal/vector"
)

// Client errors.
var (
	// ErrClientClosed is returned after Close or a connection failure.
	ErrClientClosed = errors.New("serve: client closed")
	// ErrSubClosed is returned by Recv after Unsubscribe or client close.
	ErrSubClosed = errors.New("serve: subscription closed")
)

// RegisterOptions configure a client subscription.
type RegisterOptions struct {
	// Mode is the continuous query's execution mode (default Incremental).
	Mode datacell.Mode
	// Policy is the server-side slow-consumer policy for this connection
	// (default PolicyBlock).
	Policy Policy
	// Buffer sizes both the server-side frame queue and the client-side
	// result channel (0 = server/client defaults).
	Buffer int
}

// SubResult is one decoded window result.
type SubResult struct {
	// Window is the 1-based window sequence number.
	Window int
	// Emitted is the server's wall clock at encode time.
	Emitted time.Time
	// Latency is the engine's processing time for the step that emitted
	// this window.
	Latency time.Duration
	// Table holds the result rows.
	Table *datacell.Table
}

// Sub is a live subscription. Read results with Recv (or select on C and
// Done). Results stop after Unsubscribe, client Close, or server drain.
type Sub struct {
	// ID is the server-assigned subscription ID.
	ID uint32
	// Fingerprint is the canonical fragment fingerprint of the underlying
	// plan ("" when it has none); equal fingerprints share evaluation
	// inside the engine, equal statements share one encode in the server.
	Fingerprint string

	cl       *Client
	ch       chan *SubResult
	gone     chan struct{}
	goneOnce sync.Once
}

// C returns the result channel. It is closed only when the client's
// reader exits (Close, connection loss, server BYE); after Unsubscribe it
// stays open but silent — use Done or Recv to observe the end.
func (s *Sub) C() <-chan *SubResult { return s.ch }

// Done is closed when the subscription ends for any reason.
func (s *Sub) Done() <-chan struct{} { return s.gone }

// Recv returns the next result, or an error when the subscription ended
// or ctx was cancelled. Buffered results are drained before the end of
// the subscription is reported.
func (s *Sub) Recv(ctx context.Context) (*SubResult, error) {
	select {
	case r, ok := <-s.ch:
		if !ok {
			return nil, s.cl.errOr(ErrSubClosed)
		}
		return r, nil
	default:
	}
	select {
	case r, ok := <-s.ch:
		if !ok {
			return nil, s.cl.errOr(ErrSubClosed)
		}
		return r, nil
	case <-s.gone:
		select {
		case r, ok := <-s.ch:
			if ok {
				return r, nil
			}
		default:
		}
		return nil, s.cl.errOr(ErrSubClosed)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Sub) end() { s.goneOnce.Do(func() { close(s.gone) }) }

// wireResp is one control-plane response routed by seq.
type wireResp struct {
	t       MsgType
	payload []byte // private copy
}

// pendingReq is one request awaiting its response. sub is set by Register:
// the reader attaches it under the server-assigned ID the moment the
// MsgSubscribed acknowledgement arrives — before it reads another frame —
// because the first result frames can follow the acknowledgement
// immediately (a recovered query replays its backlog at once), and a frame
// for a not-yet-attached subscription would be dropped as stale.
type pendingReq struct {
	resp chan wireResp
	sub  *Sub
}

// Client is a datacelld network client. It is safe for concurrent use;
// one background goroutine reads the socket and demultiplexes control
// responses (by sequence number) and result frames (by subscription ID).
type Client struct {
	c   net.Conn
	wmu sync.Mutex
	bw  *bufio.Writer

	mu      sync.Mutex
	seq     uint32
	pending map[uint32]pendingReq
	subs    map[uint32]*Sub
	err     error
	closed  bool
	done    chan struct{}
}

// Dial connects and performs the protocol handshake.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc)
}

// NewClient performs the handshake over an existing connection and starts
// the reader.
func NewClient(nc net.Conn) (*Client, error) {
	cl := &Client{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 1<<16),
		pending: map[uint32]pendingReq{},
		subs:    map[uint32]*Sub{},
		done:    make(chan struct{}),
	}
	hello := append([]byte(Magic), ProtocolVersion)
	if err := cl.writeFrame(MsgHello, hello); err != nil {
		nc.Close()
		return nil, err
	}
	// The handshake reply is read synchronously, before the reader starts.
	br := bufio.NewReaderSize(nc, 1<<16)
	t, payload, _, err := ReadFrame(br, nil)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("serve: handshake: %w", err)
	}
	if t != MsgOK {
		nc.Close()
		if t == MsgError {
			r := &byteReader{b: payload}
			r.u32()
			return nil, fmt.Errorf("serve: handshake rejected: %s", r.str32())
		}
		return nil, fmt.Errorf("serve: handshake: unexpected reply 0x%02x", uint8(t))
	}
	go cl.readLoop(br)
	return cl, nil
}

func (cl *Client) writeFrame(t MsgType, payload []byte) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	if err := WriteFrame(cl.bw, t, payload); err != nil {
		return err
	}
	return cl.bw.Flush()
}

// errOr returns the client's terminal error, or fallback while healthy.
func (cl *Client) errOr(fallback error) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.err != nil {
		return cl.err
	}
	return fallback
}

// fail ends the client: the terminal error is latched, every pending
// request and subscription is released, and the socket is closed.
// Subscription channels are NOT closed here — fail can run off the reader
// goroutine (Close, a write failure) while the reader is blocked sending
// on a full sub.ch, and closing the channel under that send would panic.
// Ending the subs (close gone) unblocks the reader; closing the socket
// makes its next read fail; its exit path closes the channels.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	cl.err = err
	pending := cl.pending
	cl.pending = map[uint32]pendingReq{}
	subs := make([]*Sub, 0, len(cl.subs))
	for _, s := range cl.subs {
		subs = append(subs, s)
	}
	cl.mu.Unlock()
	close(cl.done)
	for _, p := range pending {
		close(p.resp)
	}
	for _, s := range subs {
		s.end()
	}
	cl.c.Close()
}

// closeSubs runs when the reader goroutine exits. The reader is the only
// sender on subscription channels, so it is the sole closer; by the time
// it exits, fail has latched the terminal error (every reader exit path
// calls fail first), so Recv on a closed channel reports that error.
func (cl *Client) closeSubs() {
	cl.mu.Lock()
	subs := cl.subs
	cl.subs = map[uint32]*Sub{}
	cl.mu.Unlock()
	for _, s := range subs {
		s.end()
		close(s.ch)
	}
}

// Close shuts the client down. Active subscriptions end with ErrSubClosed.
func (cl *Client) Close() error {
	cl.fail(ErrClientClosed)
	return nil
}

// readLoop demultiplexes server frames until the connection ends.
func (cl *Client) readLoop(br *bufio.Reader) {
	defer cl.closeSubs()
	var buf []byte
	for {
		t, payload, nbuf, err := ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			cl.fail(fmt.Errorf("serve: connection lost: %w", err))
			return
		}
		switch t {
		case MsgResult:
			r := &byteReader{b: payload}
			subID := r.u32()
			window := r.u64()
			emit := r.i64()
			latency := r.i64()
			blk, derr := decodeBlock(r)
			if derr != nil {
				cl.fail(fmt.Errorf("serve: bad result frame: %w", derr))
				return
			}
			cl.mu.Lock()
			sub := cl.subs[subID]
			cl.mu.Unlock()
			if sub == nil {
				continue // flushed after unsubscribe; drop
			}
			res := &SubResult{
				Window:  int(window),
				Emitted: time.UnixMicro(emit),
				Latency: time.Duration(latency),
				Table:   blk.Table(),
			}
			select {
			case sub.ch <- res:
			case <-sub.gone:
			}
		case MsgBye:
			r := &byteReader{b: payload}
			cl.fail(fmt.Errorf("serve: server closed the connection: %s", r.str32()))
			return
		default:
			r := &byteReader{b: payload}
			seq := r.u32()
			if r.err != nil {
				cl.fail(fmt.Errorf("serve: bad frame: %w", r.err))
				return
			}
			cl.mu.Lock()
			p := cl.pending[seq]
			delete(cl.pending, seq)
			if t == MsgSubscribed && p.sub != nil {
				if id := r.u32(); r.err == nil {
					p.sub.ID = id
					cl.subs[id] = p.sub
				}
			}
			cl.mu.Unlock()
			if p.resp != nil {
				cp := make([]byte, len(payload))
				copy(cp, payload)
				p.resp <- wireResp{t: t, payload: cp}
			}
		}
	}
}

// request issues one control frame and waits for its response.
func (cl *Client) request(t MsgType, build func(seq uint32) []byte) (wireResp, error) {
	return cl.requestSub(t, nil, build)
}

// requestSub is request for a Register: sub is attached by the reader when
// the acknowledgement arrives (see pendingReq).
func (cl *Client) requestSub(t MsgType, sub *Sub, build func(seq uint32) []byte) (wireResp, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return wireResp{}, cl.errOr(ErrClientClosed)
	}
	cl.seq++
	seq := cl.seq
	ch := make(chan wireResp, 1)
	cl.pending[seq] = pendingReq{resp: ch, sub: sub}
	cl.mu.Unlock()
	if err := cl.writeFrame(t, build(seq)); err != nil {
		cl.mu.Lock()
		delete(cl.pending, seq)
		cl.mu.Unlock()
		cl.fail(fmt.Errorf("serve: write failed: %w", err))
		return wireResp{}, cl.errOr(err)
	}
	resp, ok := <-ch
	if !ok {
		return wireResp{}, cl.errOr(ErrClientClosed)
	}
	return resp, nil
}

// respErr converts a MsgError response into a Go error.
func respErr(resp wireResp) error {
	r := &byteReader{b: resp.payload}
	r.u32()
	return errors.New(r.str32())
}

// Ping round-trips a no-op frame.
func (cl *Client) Ping() error {
	resp, err := cl.request(MsgPing, func(seq uint32) []byte { return appendU32(nil, seq) })
	if err != nil {
		return err
	}
	if resp.t == MsgError {
		return respErr(resp)
	}
	return nil
}

// Stmt executes a statement: DDL returns a detail line, a one-shot SELECT
// returns a table.
func (cl *Client) Stmt(sql string) (string, *datacell.Table, error) {
	resp, err := cl.request(MsgStmt, func(seq uint32) []byte {
		return appendStr32(appendU32(nil, seq), sql)
	})
	if err != nil {
		return "", nil, err
	}
	switch resp.t {
	case MsgOK:
		r := &byteReader{b: resp.payload}
		r.u32()
		return r.str32(), nil, r.err
	case MsgTable:
		r := &byteReader{b: resp.payload}
		r.u32()
		blk, err := decodeBlock(r)
		if err != nil {
			return "", nil, err
		}
		return "", blk.Table(), nil
	case MsgError:
		return "", nil, respErr(resp)
	}
	return "", nil, fmt.Errorf("serve: unexpected reply 0x%02x", uint8(resp.t))
}

// Queries returns the server's query listing (sorted by ID).
func (cl *Client) Queries() (string, error) {
	resp, err := cl.request(MsgQueries, func(seq uint32) []byte { return appendU32(nil, seq) })
	if err != nil {
		return "", err
	}
	if resp.t == MsgError {
		return "", respErr(resp)
	}
	r := &byteReader{b: resp.payload}
	r.u32()
	return r.str32(), r.err
}

// Register installs a continuous query and subscribes this connection to
// its window results.
func (cl *Client) Register(sql string, opts RegisterOptions) (*Sub, error) {
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 16
	} else if buffer > 65536 {
		buffer = 65536 // never size a channel off an unbounded request
	}
	sub := &Sub{
		cl:   cl,
		ch:   make(chan *SubResult, buffer),
		gone: make(chan struct{}),
	}
	resp, err := cl.requestSub(MsgRegister, sub, func(seq uint32) []byte {
		b := appendU32(nil, seq)
		b = append(b, byte(opts.Mode), byte(opts.Policy))
		b = appendU32(b, uint32(opts.Buffer))
		return appendStr32(b, sql)
	})
	if err != nil {
		return nil, err
	}
	if resp.t == MsgError {
		return nil, respErr(resp)
	}
	if resp.t != MsgSubscribed {
		return nil, fmt.Errorf("serve: unexpected reply 0x%02x", uint8(resp.t))
	}
	// The reader already attached sub under its ID; only the fingerprint is
	// left to read.
	r := &byteReader{b: resp.payload}
	r.u32()
	r.u32()
	sub.Fingerprint = r.str32()
	if r.err != nil {
		cl.mu.Lock()
		delete(cl.subs, sub.ID)
		cl.mu.Unlock()
		sub.end()
		return nil, r.err
	}
	return sub, nil
}

// Unsubscribe detaches a subscription server-side and ends it locally.
func (cl *Client) Unsubscribe(sub *Sub) error {
	// End it locally first: the reader may be blocked handing a result to
	// this subscription's full channel, and a blocked reader would never
	// read the response to the request below.
	cl.mu.Lock()
	delete(cl.subs, sub.ID)
	cl.mu.Unlock()
	sub.end()
	resp, err := cl.request(MsgUnsubscribe, func(seq uint32) []byte {
		return appendU32(appendU32(nil, seq), sub.ID)
	})
	if err != nil {
		return err
	}
	if resp.t == MsgError {
		return respErr(resp)
	}
	return nil
}

// Append ingests a columnar batch into a stream. names may be nil for
// positional mapping onto the stream schema; cols must be rectangular.
func (cl *Client) Append(stream string, names []string, cols []*vector.Vector) error {
	return cl.append(0, stream, names, cols)
}

// InsertTable inserts a columnar batch into a persistent table.
func (cl *Client) InsertTable(table string, names []string, cols []*vector.Vector) error {
	return cl.append(1, table, names, cols)
}

func (cl *Client) append(kind byte, target string, names []string, cols []*vector.Vector) error {
	resp, err := cl.request(MsgAppend, func(seq uint32) []byte {
		b := appendU32(nil, seq)
		b = append(b, kind)
		b = appendStr32(b, target)
		return AppendVectors(b, names, cols)
	})
	if err != nil {
		return err
	}
	if resp.t == MsgError {
		return respErr(resp)
	}
	return nil
}
