package engine

import (
	"sync"

	"datacell/internal/core"
)

// A group is a slide group, the unit the scheduler fires: the queries on
// one stream whose per-basic-window fragment has one canonical key
// (core.IncPlan.FragmentKey), or a single query that shares nothing —
// joins, re-evaluation, chunked, landmark, Baseline and non-canonical
// fragments are groups of one and run the same code. A step of a group
// fires its members in registration order, and the members share slot
// files and merge heads through a memo that lives for that step only:
// there is nothing to claim, publish, wait for or abort.
type group struct {
	key string // the group's entry in Engine.groups; "" for a group of one
	fp  string // display fingerprint of the canonical fragment

	// stepMu serializes the group's steps, whichever goroutine runs them:
	// the group's scheduler worker, a synchronous Pump or PumpParallel.
	stepMu sync.Mutex
	// Step scratch, guarded by stepMu: each member's planned batch, and the
	// memo, emptied when the step ends.
	batches []*slideBatch
	memo    stepMemo

	mu sync.Mutex
	// members lists the live members in registration order. Copy-on-write:
	// a step fires a snapshot.
	members []*ContinuousQuery
	// states are the delta states of the members' merge tails, one per
	// tail key and slide phase, each with the number of members holding it.
	states map[tailPhase]*heldState
	// emitting is the member whose OnResult callback is running, if any.
	emitting *ContinuousQuery
	// wake is the wake channel of the group's current scheduler worker (nil
	// while it has none). Each worker generation gets a fresh channel, so
	// an exiting worker can never consume its successor's wake-ups.
	wake chan struct{}
}

// tailPhase names one delta state of a group: a merge tail
// (core.IncPlan.MergeTailKey) at one slide phase — absolute window end mod
// slide. Look-alike queries registered a non-multiple of the slide apart
// share the tail but never a window end: one state between them would be
// rebuilt on every slide.
type tailPhase struct {
	tail  string
	phase int64
}

type heldState struct {
	state *core.TailState
	refs  int
}

// stepMemo is what one step of a group shares between its members: the
// slot files evaluated so far, keyed by absolute log range, and the merge
// heads captured so far, keyed by tail and absolute window end.
type stepMemo struct {
	files map[logRange]core.SlotFile
	heads map[headAt]*core.MergeHead
	// last is the step index of the last member whose plan merges each
	// head: a member captures a head only for a later one.
	last map[headAt]int
}

type logRange struct{ start, end int64 }

type headAt struct {
	tail string
	end  int64
}

// join adds q to the group and hands it the delta state of its merge tail
// (if any) at phase, creating the state on first use. Caller holds e.mu.
func (g *group) join(q *ContinuousQuery, phase int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append(g.members[:len(g.members):len(g.members)], q)
	q.grp = g
	if q.tailKey == "" {
		return
	}
	if g.states == nil {
		g.states = map[tailPhase]*heldState{}
	}
	k := tailPhase{q.tailKey, phase}
	hs := g.states[k]
	if hs == nil {
		hs = &heldState{state: &core.TailState{}}
		g.states[k] = hs
	}
	hs.refs++
	q.tailPhase, q.tailState = phase, hs.state
}

// leave removes q from the group, releasing its delta state, and reports
// whether the group is now empty. Caller holds e.mu.
func (g *group) leave(q *ContinuousQuery) (empty bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	members := make([]*ContinuousQuery, 0, len(g.members))
	for _, m := range g.members {
		if m != q {
			members = append(members, m)
		}
	}
	g.members = members
	if q.tailKey != "" {
		k := tailPhase{q.tailKey, q.tailPhase}
		if hs := g.states[k]; hs != nil {
			if hs.refs--; hs.refs == 0 {
				delete(g.states, k)
			}
		}
	}
	return len(members) == 0
}

// snapshot returns the current members in registration order.
func (g *group) snapshot() []*ContinuousQuery {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members
}

// tailMembers counts the members merging through tail (Explain).
func (g *group) tailMembers(tail string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, m := range g.members {
		if m.tailKey == tail {
			n++
		}
	}
	return n
}

// setEmitting records the member whose callback runs (nil once it returns).
func (g *group) setEmitting(q *ContinuousQuery) {
	g.mu.Lock()
	g.emitting = q
	g.mu.Unlock()
}

// notify posts a non-blocking wake-up for the group's worker, if it has one.
func (g *group) notify() {
	g.mu.Lock()
	ch := g.wake
	g.mu.Unlock()
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pump steps the group until no member fires and returns the slides fired.
// stop, when non-nil, is checked between steps, so a worker being stopped
// abandons its drain after at most one more step.
func (g *group) pump(stop <-chan struct{}, park bool) (int, error) {
	steps := 0
	for {
		if stop != nil {
			select {
			case <-stop:
				return steps, nil
			default:
			}
		}
		n, err := g.step(g.snapshot(), park)
		steps += n
		if err != nil || n == 0 {
			return steps, err
		}
	}
}

// step runs one step of the group over members, in order:
//
//  1. plan every live member's ready batch (planStep);
//  2. note, for every merge head, the last member whose plan merges it;
//  3. fire the members one by one (fireStep). A slide whose log range an
//     earlier member evaluated adopts that slot file, and a window whose
//     head an earlier member captured adopts that head; whatever is left
//     the member computes on its own runtime, keeping it in the memo.
//
// It returns the slides fired. A member's error fails that member alone:
// the next member that needs the same range or head computes it itself.
// With park the error becomes the member's terminal error and the member
// sits out every step until the scheduler restarts; without, the first
// error is returned once the step has fired the other members.
func (g *group) step(members []*ContinuousQuery, park bool) (int, error) {
	g.stepMu.Lock()
	defer g.stepMu.Unlock()
	var firstErr error
	fail := func(q *ContinuousQuery, err error) {
		if park {
			q.setErr(err)
		} else if firstErr == nil {
			firstErr = err
		}
	}
	batches := g.batches[:0]
	for _, q := range members {
		b, err := q.planStep(park)
		if err != nil {
			fail(q, err)
		}
		batches = append(batches, b)
	}
	g.batches = batches
	defer clear(g.batches) // don't pin the batches past the step
	var memo *stepMemo
	if len(members) > 1 {
		memo = &g.memo
		memo.plan(members, batches)
		defer memo.reset()
	}
	steps := 0
	for i, q := range members {
		n, err := q.fireStep(batches[i], memo, i, park)
		if err != nil {
			fail(q, err)
		}
		steps += n
	}
	return steps, firstErr
}

// plan records, for every merge head the members' batches merge, the last
// member that merges it.
func (m *stepMemo) plan(members []*ContinuousQuery, batches []*slideBatch) {
	if m.files == nil {
		m.files = map[logRange]core.SlotFile{}
		m.heads = map[headAt]*core.MergeHead{}
		m.last = map[headAt]int{}
	}
	for i, q := range members {
		b := batches[i]
		if b == nil || q.tailKey == "" {
			continue
		}
		for sl := 0; sl < b.k; sl++ {
			m.last[headAt{q.tailKey, b.end(sl)}] = i
		}
	}
}

// reset empties the memo: nothing it holds outlives the step.
func (m *stepMemo) reset() {
	clear(m.files)
	clear(m.heads)
	clear(m.last)
}
