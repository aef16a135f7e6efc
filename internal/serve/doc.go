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
// commands, and one writer that owns the socket; a statement costs none.
// Subscriptions are interned by statement: all clients registering the same
// SQL text and mode share one engine query, whose windows land in its
// result log (the paper's output basket). Each subscription is a cursor on
// that log, and a window's frame is encoded once, by the first cursor to
// take it — one serialize, N frames: the shared-plan fragment catalog
// carried one layer up. A statement's first cursor takes over the query's
// unread windows (a recovered query's replay); later ones start at the
// newest.
//
// Replies wait in the connection's outbox, result frames in the cursors,
// whose wake hooks put their subscription on the connection's ready list.
// The writer takes control frames first, each flushed at once, then one
// frame at a time from the ready subscriptions into a 64 KiB buffer, and
// flushes when none is ready — no timer, no setting. With more than one
// subscription it yields the processor once before flushing results, so
// sibling statements' frames for one slide share a write. A subscription
// is ready only once its SUBSCRIBED is queued, so no frame overtakes it.
//
// # Backpressure
//
// Each cursor carries its subscription's {buffer, policy} — the shape of
// SubOptions — and the log applies it on the step that appends a window.
// When a cursor lags more than its buffer:
//
//   - PolicyBlock: that query's step waits for the writer (or the
//     subscription's end); the stall stays in that query.
//   - PolicyDropOldest: the cursor skips its oldest window — bounded
//     staleness; a dead socket never stalls ingest or other clients.
//   - PolicyDisconnect: the log detaches the cursor and calls its eviction
//     hook, which closes the connection's other cursors and ends it with
//     BYE "slow client (policy disconnect)"; a socket that takes no bytes
//     for a second closes untold. A writer stuck in a write cannot delay it.
//
// Lock order: Server.mu, conn.mu, sharedSub.mu or the query's and then its
// result log's mutex. The log calls no hook with its mutex held, so hooks
// may take conn.mu.
//
// # Drain
//
// Shutdown stops accepting, halts the scheduler and pumps owed windows into
// the result logs; each connection then accepts nothing new, and its writer
// writes the queued replies, every frame its cursors owe, and a BYE, then
// closes — bounded by the caller's context deadline, after which
// connections are force-closed. A connection's end is counted under the
// class of its first cause: read, write, policy, drain, handshake, dispatch.
package serve
