package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"datacell/internal/core"
	"datacell/internal/exec"
	"datacell/internal/vector"
)

// cacheCase is one scenario of the partialCache contract. It receives a
// fresh registry with the cache under test attached for two subscribers.
type cacheCase[V any] struct {
	name string
	run  func(t *testing.T, reg *shareRegistry, c *partialCache[V], q1, q2 *ContinuousQuery, val func(i int) V, same func(a, b V) bool)
}

func cacheCases[V any]() []cacheCase[V] {
	type C = *partialCache[V]
	type Q = *ContinuousQuery
	return []cacheCase[V]{
		{"leader follower hand-off", func(t *testing.T, _ *shareRegistry, c C, _, _ Q, val func(int) V, same func(a, b V) bool) {
			lp, lead := c.acquire(100, 164)
			if !lead || lp == nil {
				t.Fatalf("first acquire: lead=%v p=%v, want a leader with a partial to publish", lead, lp)
			}
			fp, lead := c.acquire(100, 164)
			if lead || fp != lp {
				t.Fatalf("second acquire: lead=%v, same partial=%v; want a follower of the leader's partial", lead, fp == lp)
			}
			got := make(chan V)
			go func() {
				fp.wait()
				got <- fp.val
			}()
			lp.publish(val(7), nil)
			lp.publish(val(8), errors.New("late")) // publish-once: ignored
			if v := <-got; !same(v, val(7)) || fp.err != nil {
				t.Fatalf("follower adopted %v (err %v), want the leader's first published value", v, fp.err)
			}
		}},
		{"abort reaches the follower and poisons nothing else", func(t *testing.T, _ *shareRegistry, c C, _, _ Q, val func(int) V, same func(a, b V) bool) {
			lp, _ := c.acquire(0, 10)
			fp, _ := c.acquire(0, 10)
			var zero V
			lp.publish(zero, errPartialAborted)
			fp.wait()
			if !errors.Is(fp.err, errPartialAborted) {
				t.Fatalf("follower err = %v, want errPartialAborted", fp.err)
			}
			// A later acquirer of the aborted position sees the abort at once
			// (and recomputes privately) instead of hanging...
			late, lead := c.acquire(0, 10)
			if lead || late != lp {
				t.Fatal("aborted position handed out a second leadership")
			}
			late.wait()
			// ...and every other position is unaffected.
			np, lead := c.acquire(10, 20)
			if !lead || np == nil {
				t.Fatal("position after an abort did not get a fresh leader")
			}
			np.publish(val(1), nil)
			if f, _ := c.acquire(10, 20); f.err != nil || !same(f.val, val(1)) {
				t.Fatalf("position after an abort is poisoned: val %v err %v", f.val, f.err)
			}
		}},
		{"extent mismatch leads privately without touching the entry", func(t *testing.T, _ *shareRegistry, c C, _, _ Q, val func(int) V, same func(a, b V) bool) {
			lp, _ := c.acquire(50, 60)
			p, lead := c.acquire(50, 61)
			if p != nil || !lead {
				t.Fatalf("mismatched extent: p=%v lead=%v, want a private lead (nil, true)", p, lead)
			}
			if c.cached() != 1 || lp.extent != 60 {
				t.Fatalf("mismatch disturbed the cache: %d entries, extent %d", c.cached(), lp.extent)
			}
			lp.publish(val(3), nil)
			if f, lead := c.acquire(50, 60); lead || !same(f.val, val(3)) {
				t.Fatal("matching acquirer no longer follows the original entry")
			}
		}},
		{"prune once per round, keeping what a follower has not consumed", func(t *testing.T, _ *shareRegistry, c C, q1, q2 Q, val func(int) V, _ func(a, b V) bool) {
			for _, pos := range []int64{0, 10, 20} {
				p, _ := c.acquire(pos, pos+10)
				p.publish(val(int(pos)), nil)
			}
			c.consumedTo(q1, 30) // half a round: no prune yet
			if c.cached() != 3 {
				t.Fatalf("pruned mid-round: %d entries left, want 3", c.cached())
			}
			c.consumedTo(q2, 10) // round complete: horizon = min(30, 10)
			if c.cached() != 2 {
				t.Fatalf("after one round %d entries cached, want 2 (positions 10 and 20: q2 has not consumed them)", c.cached())
			}
			if _, lead := c.acquire(10, 20); lead {
				t.Fatal("entry the slower subscriber still needs was pruned")
			}
			c.consumedTo(&ContinuousQuery{}, 99) // a stranger is ignored, not subscribed
			if c.subscribers() != 2 {
				t.Fatalf("consumedTo subscribed a stranger: %d subscribers", c.subscribers())
			}
		}},
		{"last detach empties the registry", func(t *testing.T, reg *shareRegistry, c C, q1, q2 Q, val func(int) V, _ func(a, b V) bool) {
			p, _ := c.acquire(0, 10)
			p.publish(val(0), nil)
			c.detach(q1)
			if reg.size() != 1 || c.subscribers() != 1 {
				t.Fatalf("after first detach: %d caches, %d subscribers; want 1, 1", reg.size(), c.subscribers())
			}
			c.detach(q2)
			if reg.size() != 0 || c.cached() != 0 {
				t.Fatalf("after last detach: %d caches in the registry, %d partials held; want 0, 0", reg.size(), c.cached())
			}
			if again := attach[V](reg, c.key, c.fp, q1, 0); again == c {
				t.Fatal("re-attach after the last detach revived the dead cache")
			}
		}},
		{"concurrent acquire elects one leader per position", func(t *testing.T, _ *shareRegistry, c C, _, _ Q, val func(int) V, same func(a, b V) bool) {
			const workers, positions = 8, 64
			var leaders [positions]atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Like fireSlides: claim everything, publish everything
					// owed, only then wait.
					claims := make([]*partial[V], positions)
					lead := make([]bool, positions)
					for i := range claims {
						claims[i], lead[i] = c.acquire(int64(i), int64(i+1))
					}
					for i, p := range claims {
						if lead[i] {
							leaders[i].Add(1)
							p.publish(val(i), nil)
						}
					}
					for i, p := range claims {
						p.wait()
						if p.err != nil || !same(p.val, val(i)) {
							t.Errorf("position %d: adopted %v (err %v)", i, p.val, p.err)
						}
					}
				}()
			}
			wg.Wait()
			for i := range leaders {
				if n := leaders[i].Load(); n != 1 {
					t.Errorf("position %d had %d leaders, want 1", i, n)
				}
			}
		}},
	}
}

func runCacheCases[V any](t *testing.T, key string, val func(i int) V, same func(a, b V) bool) {
	for _, tc := range cacheCases[V]() {
		t.Run(tc.name, func(t *testing.T) {
			reg := newShareRegistry()
			q1, q2 := &ContinuousQuery{}, &ContinuousQuery{}
			c := attach[V](reg, key, "fp", q1, 0)
			if attach[V](reg, key, "fp", q2, 0) != c || reg.size() != 1 || c.subscribers() != 2 {
				t.Fatal("two attaches of one key must intern one cache with two subscribers")
			}
			tc.run(t, reg, c, q1, q2, val, same)
		})
	}
}

// TestPartialCache runs the one sharing mechanism's contract over both of
// its instantiations: fragment slot files and merge heads.
func TestPartialCache(t *testing.T) {
	t.Run("fragment", func(t *testing.T) {
		runCacheCases(t, fragKey("k"),
			func(i int) core.SlotFile {
				return core.SlotFile{exec.VecDatum(vector.FromInt64([]int64{int64(i)}))}
			},
			func(a, b core.SlotFile) bool {
				return len(a) == 1 && len(b) == 1 && a[0].Vec.Int64s()[0] == b[0].Vec.Int64s()[0]
			})
	})
	t.Run("tail", func(t *testing.T) {
		runCacheCases(t, tailKey("k"),
			func(i int) *core.MergeHead {
				return &core.MergeHead{Keys: []*vector.Vector{vector.FromInt64([]int64{int64(i)})}}
			},
			func(a, b *core.MergeHead) bool {
				return a != nil && b != nil && a.Keys[0].Int64s()[0] == b.Keys[0].Int64s()[0]
			})
	})
	// One key space per instantiation: the same canonical text never makes a
	// fragment and a tail collide in the registry's one map.
	if fragKey("k") == tailKey("k") {
		t.Fatal("fragment and tail keys collide")
	}
}
