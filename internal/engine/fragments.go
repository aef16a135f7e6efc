package engine

import (
	"errors"
	"sync"

	"datacell/internal/core"
)

// errPartialAborted marks a shared partial whose leader errored, exited or
// had nothing to publish before completing it; waiting followers fall back
// to computing the value privately (each keeps its own slot ring, so the
// fallback needs no coordination).
var errPartialAborted = errors.New("engine: shared partial leader aborted")

// shareRegistry is one stream's shared-plan catalog: canonical key -> the
// partialCache computed once per log position for every subscribed query.
// One map holds both instantiations (fragKey and tailKey keep their key
// spaces apart). Lock order: e.mu > shareRegistry.mu > partialCache.mu,
// never the reverse.
type shareRegistry struct {
	mu     sync.Mutex
	caches map[string]any // *partialCache[V]
}

func newShareRegistry() *shareRegistry {
	return &shareRegistry{caches: map[string]any{}}
}

// The two instantiations of the cache.
//
// A sharedFragment is one canonical per-basic-window fragment. Partials are
// slot files keyed by the absolute log position where the slide STARTS
// (extent: where it ends), so queries whose cursors sit at the same offset
// share whatever their window lengths, and queries subscribed mid-slide
// simply lead their own (differently keyed) ranges.
//
// A sharedTail is one canonical merge head — the concat + grouped re-group.
// Partials are keyed by the absolute position where the window ENDS: a head
// re-groups the whole window (the window length is part of the tail's
// canonical key), so only queries merging the exact same row range adopt it.
type (
	sharedFragment = partialCache[core.SlotFile]
	sharedTail     = partialCache[*core.MergeHead]
)

func fragKey(canon string) string { return "frag|" + canon }
func tailKey(canon string) string { return "tail|" + canon }

// partialCache is the one leader/follower sharing mechanism: a keyed cache
// of values in flight with its refcounted subscribers. The first query to
// acquire a position leads — it computes the value and publishes it exactly
// once, success or abort — and every other subscriber waits for and adopts
// the published value.
//
// Deadlock freedom rests on two rules the firing path (fireSlides) keeps:
//
//   - fragments: a query fixes its leadership set for a whole firing up
//     front and publishes ALL the partials it owes — value or abort —
//     before it waits on any partial another query leads, so fragment waits
//     never cycle;
//   - tails: a query merges its slides in ascending window-end order and
//     has published every head it leads below end E before it waits at E,
//     so wait-for edges point at strictly smaller ends; and every fragment
//     partial is published before any tail runs, so a tail wait never holds
//     up a fragment wait.
type partialCache[V any] struct {
	reg *shareRegistry
	key string
	fp  string // display fingerprint of the canonical key

	mu sync.Mutex
	// subs maps each subscribed query to the absolute log position it will
	// consume next; the minimum over all subscribers is the prune horizon.
	subs  map[*ContinuousQuery]int64
	cache map[int64]*partial[V]
	// consumes counts consumedTo calls since the last prune; the O(subs)
	// horizon scan runs once per len(subs) consumes (one round of firings),
	// keeping the per-firing bookkeeping O(1) amortized at high fanout
	// while still bounding the cache to ~two rounds of partials.
	consumes int
}

// partial is one position's shared value. val and err are written exactly
// once, by the leader, before done closes, so readers after wait() need no
// lock; published is the leader's own publish-once guard.
type partial[V any] struct {
	extent    int64
	done      chan struct{}
	val       V
	err       error
	published bool
}

// attach subscribes q to the cache named by key, creating it on first use.
// pos is a lower bound on every position q will acquire (its cursor's
// absolute position) — a safe initial prune horizon.
func attach[V any](reg *shareRegistry, key, fp string, q *ContinuousQuery, pos int64) *partialCache[V] {
	reg.mu.Lock()
	c, ok := reg.caches[key].(*partialCache[V])
	if !ok {
		c = &partialCache[V]{
			reg: reg, key: key, fp: fp,
			subs:  map[*ContinuousQuery]int64{},
			cache: map[int64]*partial[V]{},
		}
		reg.caches[key] = c
	}
	reg.mu.Unlock()
	c.mu.Lock()
	c.subs[q] = pos
	c.mu.Unlock()
	return c
}

// detach unsubscribes q (refcounted release): the cache is pruned to the
// remaining subscribers, and deleted from the registry once none is left,
// so an orphaned cache stops accumulating partials the moment its last
// query deregisters.
func (c *partialCache[V]) detach(q *ContinuousQuery) {
	c.reg.mu.Lock()
	c.mu.Lock()
	delete(c.subs, q)
	if len(c.subs) == 0 {
		delete(c.reg.caches, c.key)
	}
	c.pruneLocked()
	c.mu.Unlock()
	c.reg.mu.Unlock()
}

// acquire claims the partial at absolute position pos (singleflight).
// lead=true means the caller must compute the value itself: either it is
// the first to claim pos (a fresh partial was cached for it to publish — it
// MUST publish, value or abort), or p is nil because the cached partial
// disagrees on extent — then the caller computes privately and publishes
// nothing. lead=false returns the cached partial to wait on.
func (c *partialCache[V]) acquire(pos, extent int64) (p *partial[V], lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.cache[pos]; ok {
		if p.extent != extent {
			// Same start, different slide extent — should not happen for
			// aligned subscribers (ts-ordered arrival makes a closed slide's
			// tuple count final), but stay correct if it does: evaluate
			// privately without poisoning the cache.
			return nil, true
		}
		return p, false
	}
	p = &partial[V]{extent: extent, done: make(chan struct{})}
	c.cache[pos] = p
	return p, true
}

// publish installs the leader's value (or its error) and releases every
// waiting follower. Only the leader calls it; calls after the first are
// no-ops, so an abort-everything-owed cleanup may follow a normal publish.
// A published error poisons only this partial: later acquirers of other
// positions are unaffected.
func (p *partial[V]) publish(val V, err error) {
	if p.published {
		return
	}
	p.published = true
	p.val, p.err = val, err
	close(p.done)
}

// wait blocks until the leader publishes.
func (p *partial[V]) wait() { <-p.done }

// consumedTo records that q has consumed every position below pos and
// prunes partials no remaining subscriber will read. A query that detached
// concurrently is not re-added.
func (c *partialCache[V]) consumedTo(q *ContinuousQuery, pos int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.subs[q]; !ok {
		return
	}
	c.subs[q] = pos
	c.consumes++
	if c.consumes >= len(c.subs) {
		c.pruneLocked()
	}
}

// pruneLocked drops cached partials keyed below the minimum subscriber
// position (everything, once no subscriber is left). A follower still
// waiting on a partial has not advanced past its key, so its entry
// survives until the follower consumes it.
func (c *partialCache[V]) pruneLocked() {
	c.consumes = 0
	if len(c.subs) == 0 {
		clear(c.cache)
		return
	}
	min := int64(-1)
	for _, pos := range c.subs {
		if min < 0 || pos < min {
			min = pos
		}
	}
	for key := range c.cache {
		if key < min {
			delete(c.cache, key)
		}
	}
}

// subscribers reports the current subscriber count (Explain, tests).
func (c *partialCache[V]) subscribers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// cached reports the number of partials currently held (testing hook).
func (c *partialCache[V]) cached() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// sharesOf returns a stream's share registry (testing hook).
func (e *Engine) sharesOf(stream string) *shareRegistry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if si, ok := e.streams[stream]; ok {
		return si.shares
	}
	return nil
}

// size reports the number of live caches, fragments and tails (testing hook).
func (r *shareRegistry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.caches)
}
