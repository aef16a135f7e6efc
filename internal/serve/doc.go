// Package serve is datacell's network serving tier: a TCP server that
// multiplexes many concurrent clients onto one engine instance, speaking a
// length-prefixed binary protocol with columnar result frames, plus the
// matching Go client and a /metrics HTTP exporter.
//
// # Protocol
//
// Every message is a frame: a 4-byte big-endian payload length, a 1-byte
// message type, and the payload (see protocol.go for the per-type
// layouts). Payloads are capped at MaxFrame; a reader rejects oversized
// frames before allocating and treats a short payload as a truncated
// frame. Result payloads carry whole columns (columnar blocks encoded by
// codec.go straight from vector.Vector / vector.View parts — no per-row
// boxing), so a window result costs one encode regardless of row count.
//
// # Multiplexing and shared encode
//
// Each connection is served by two goroutines: a reader that executes
// commands, and one writer that owns the socket — nothing else writes it.
// Subscriptions are interned by statement: all clients registering the same
// SQL text and mode attach to a single sharedSub owning one engine query and
// one Query.Subscribe channel, and every window result is encoded exactly
// once by that statement's fanout and queued, by reference, for each
// attached subscription — one serialize, N frames. This extends the engine's
// shared-plan fragment catalog (which shares pre-merge evaluation across
// *different* statements with equal fragment fingerprints) one layer up:
// identical statements also share the merge, the subscription, and the
// wire encode.
//
// Replies and every subscription's result frames enter the connection's
// outbox in arrival order. The writer copies what is ready into a 64 KiB
// buffer and flushes when the outbox is empty: the batch is whatever is ready
// when it looks — no timer, no setting. A control frame (reply, append ack,
// SUBSCRIBED, BYE) flushes at once. With more than one subscription on the
// connection the writer yields the processor once before flushing results,
// so the frames sibling fanouts emit for the same slide share a write; with
// one, each frame is one prompt write. A subscription's frames enter the
// outbox only behind its SUBSCRIBED.
//
// # Backpressure
//
// The shared engine subscription runs SubOptions{OnOverflow: Block}, so
// the engine never drops a window before the fanout saw it. Each
// subscription has its own bounded queue of undelivered frames — the same
// {buffer, overflow} shape as SubOptions — filled by the fanout and emptied
// by the writer. When it is full:
//
//   - PolicyBlock: that statement's fanout waits for the writer to take a
//     frame (or the subscription to end) — the stall propagates through the
//     Block subscription into that query's step and to nothing else.
//   - PolicyDropOldest: the subscription's oldest undelivered frame gives
//     way — bounded staleness; a slow or dead socket never stalls ingest,
//     the engine, or other clients.
//   - PolicyDisconnect: the connection is evicted — what it has queued is
//     discarded, the writer sends BYE "slow client (policy disconnect)" and
//     closes; a socket that takes no bytes for a second closes untold.
//
// # Drain
//
// Shutdown stops accepting, halts the scheduler, pumps owed windows
// synchronously and closes the shared subscriptions (their channels drain
// through the fanouts into the outboxes); each connection then accepts
// nothing new, its writer empties the outbox, writes a BYE and closes — all
// bounded by the caller's context deadline, after which connections are
// force-closed. A connection's end is counted under the class of its first
// cause: read, write, policy, drain, handshake, dispatch.
package serve
