package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire constants. The frame header is a 4-byte big-endian payload length
// followed by a 1-byte message type; the length counts the payload only.
const (
	// Magic opens every connection's HELLO payload.
	Magic = "DCL1"
	// ProtocolVersion is bumped on incompatible layout changes.
	ProtocolVersion = 2
	// HeaderSize is the fixed frame header length.
	HeaderSize = 5
	// MaxFrame caps a payload; readers reject larger lengths before
	// allocating, writers refuse to emit them.
	MaxFrame = 64 << 20
)

// MsgType tags a frame. Client-to-server types have the high bit clear,
// server-to-client types have it set.
type MsgType uint8

// Client → server messages.
const (
	// MsgHello is the handshake: Magic + u8 version. Answered with MsgOK
	// or MsgError (then close).
	MsgHello MsgType = 0x01
	// MsgStmt executes a statement (DDL or one-shot SELECT):
	// u32 seq | str sql. Answered with MsgOK, MsgTable or MsgError.
	MsgStmt MsgType = 0x02
	// MsgRegister registers a continuous query and subscribes:
	// u32 seq | u8 mode | u8 policy | u32 buffer | str sql.
	// Answered with MsgSubscribed or MsgError.
	MsgRegister MsgType = 0x03
	// MsgUnsubscribe detaches a subscription: u32 seq | u32 subID.
	MsgUnsubscribe MsgType = 0x04
	// MsgAppend ingests a columnar batch: u32 seq | u8 kind (0 stream,
	// 1 table) | str target | block. Empty column names map positionally.
	MsgAppend MsgType = 0x05
	// MsgPing is answered with MsgOK: u32 seq.
	MsgPing MsgType = 0x06
	// MsgQueries asks for the server's query listing: u32 seq. Answered
	// with MsgOK whose detail is the listing text, sorted by ID.
	MsgQueries MsgType = 0x07
)

// Server → client messages.
const (
	// MsgOK acknowledges a request: u32 seq | str detail.
	MsgOK MsgType = 0x81
	// MsgError reports a failed request: u32 seq | str message.
	MsgError MsgType = 0x82
	// MsgTable carries a one-shot result: u32 seq | block.
	MsgTable MsgType = 0x83
	// MsgResult carries one window result of a subscription:
	// u32 subID | u64 window | i64 emitMicros | i64 latencyNS | block.
	// The block (and everything after subID) is encoded once per window
	// and shared verbatim by every subscriber of the same statement.
	MsgResult MsgType = 0x84
	// MsgSubscribed acknowledges MsgRegister:
	// u32 seq | u32 subID | str fingerprint.
	MsgSubscribed MsgType = 0x85
	// MsgBye announces a server-initiated close: str reason.
	MsgBye MsgType = 0x86
)

// Frame-level errors.
var (
	// ErrFrameTooLarge rejects a frame whose declared payload exceeds
	// MaxFrame.
	ErrFrameTooLarge = errors.New("serve: frame exceeds MaxFrame")
	// ErrTruncated reports a payload shorter than its declared layout.
	ErrTruncated = errors.New("serve: truncated frame")
)

// WriteFrame emits one frame. The caller serializes concurrent writers.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, len(payload))
	}
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf for the payload when it has
// capacity. The returned payload aliases the (possibly grown) buffer,
// which is also returned for reuse; callers that keep a payload across
// reads must copy it.
func ReadFrame(r io.Reader, buf []byte) (MsgType, []byte, []byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, buf, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: %d-byte payload cut short", ErrTruncated, n)
		}
		return 0, nil, buf, err
	}
	return MsgType(hdr[4]), payload, buf, nil
}
