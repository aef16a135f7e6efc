package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/catalog"
	"datacell/internal/vector"
)

// groupsOf returns the canonical slide groups reading a stream (testing
// hook).
func (e *Engine) groupsOf(stream string) []*group {
	e.mu.Lock()
	defer e.mu.Unlock()
	var gs []*group
	for key, g := range e.groups {
		if strings.HasPrefix(key, stream+"\x00") {
			gs = append(gs, g)
		}
	}
	return gs
}

// pump steps q's group until nothing fires, firing q first in every step
// (testing hook: the scheduler's steps fire in registration order, so a
// test that pumps the members of a group in turns makes each of them
// evaluate and merge first, the others adopt).
func (q *ContinuousQuery) pump() (int, error) {
	total := 0
	for {
		order := []*ContinuousQuery{q}
		for _, m := range q.grp.snapshot() {
			if m != q {
				order = append(order, m)
			}
		}
		n, err := q.grp.step(order, false)
		total += n
		if err != nil || n == 0 {
			return total, err
		}
	}
}

// goroutinesIn counts live goroutines with fn on their stack.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			// A frame is "pkg.fn(args"; the "created by pkg.fn in" line of a
			// child goroutine has no parenthesis after the name.
			return strings.Count(string(buf[:n]), fn+"(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// fanoutSQL is BenchmarkTailFanout's shape: 4 filters x 4 ranges x 4
// HAVINGs over SLIDE 256, 64 queries in 4 slide groups.
func fanoutSQL() []string {
	var sqls []string
	for _, a := range []int{0, 100, 200, 300} {
		for _, r := range []int{1024, 2048, 4096, 8192} {
			for _, h := range []int{0, 1, 2, 3} {
				sqls = append(sqls, fmt.Sprintf("SELECT k, sum(v), count(*) FROM s [RANGE %d SLIDE 256] WHERE v >= %d GROUP BY k HAVING count(*) > %d", r, a, h))
			}
		}
	}
	return sqls
}

// TestGroupWorkersPerFragment runs the 64-query fan-out under Start: it
// takes exactly 4 group workers, one per fragment, and every query's
// windows equal those of a Pump run, in which every merge tail's delta
// state is built once and then only stepped — members later in a step
// adopt the head an earlier one captured instead of merging again.
func TestGroupWorkersPerFragment(t *testing.T) {
	const slides = 40
	run := func(start bool) ([]*collector, []*group) {
		e := New()
		col := func(n string) catalog.Column { return catalog.Column{Name: n, Type: vector.Int64} }
		if err := e.RegisterStream("s", catalog.NewSchema(col("k"), col("v"))); err != nil {
			t.Fatal(err)
		}
		var cs []*collector
		var qs []*ContinuousQuery
		for _, sql := range fanoutSQL() {
			c := &collector{}
			q, err := e.Register(sql, Options{Mode: Incremental, OnResult: c.add})
			if err != nil {
				t.Fatal(err)
			}
			cs, qs = append(cs, c), append(qs, q)
		}
		if start {
			e.Start()
			t.Cleanup(e.Stop)
			// A spawned worker that has not run yet shows the go statement's
			// wrapper on its stack, not the worker function: wait those out.
			deadline := time.Now().Add(5 * time.Second)
			for goroutinesIn("engine.(*Engine).startWorkerLocked.gowrap1") > 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := goroutinesIn("engine.(*group).work"); n != 4 {
				t.Fatalf("%d group workers for 64 queries over 4 fragments, want 4", n)
			}
		}
		rng := rand.New(rand.NewSource(7))
		for sl := 0; sl < slides; sl++ {
			k, v := make([]int64, 256), make([]int64, 256)
			for i := range k {
				k[i], v[i] = rng.Int63n(64), rng.Int63n(1000)
			}
			if err := e.AppendColumns("s", []*vector.Vector{vector.FromInt64(k), vector.FromInt64(v)}, nil); err != nil {
				t.Fatal(err)
			}
			if !start {
				if _, err := e.Pump(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if start {
			for i, q := range qs {
				waitWindows(t, q, slides-(1024<<(i/4%4))/256+1)
			}
			e.Stop()
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
		}
		return cs, e.groupsOf("s")
	}
	got, _ := run(true)
	want, gs := run(false)
	for i := range want {
		if len(got[i].results) != len(want[i].results) {
			t.Fatalf("query %d: %d windows under Start, %d under Pump", i, len(got[i].results), len(want[i].results))
		}
		for w, r := range want[i].results {
			if tableKey(got[i].results[w].Table, false) != tableKey(r.Table, false) {
				t.Fatalf("query %d window %d differs between Start and Pump", i, w+1)
			}
		}
	}
	if sum, states := tailDeltas(gs); states != 16 || sum.Rebuilds != states {
		t.Fatalf("%d delta states rebuilt %d times, want 16 built once each", states, sum.Rebuilds)
	}
}

// TestGroupIsolation blocks one member of a slide group inside its
// OnResult. Meanwhile a query with another fragment on the same stream
// keeps emitting under Start, and Deregister of a look-alike in the
// blocked group returns, after which the look-alike emits nothing more.
// Released, the blocked member resumes with no window lost and none
// repeated: its windows equal a Pump run's.
func TestGroupIsolation(t *testing.T) {
	const sqlA = `SELECT x1, sum(x2) FROM s [RANGE 8 SLIDE 4] GROUP BY x1 HAVING sum(x2) > %d`
	const rows = 64
	feed := func(e *Engine, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			appendN(t, e, 1, int64(i%3), int64(i))
		}
	}
	e := schedEngine(t)
	release := make(chan struct{})
	var blocked sync.Once
	inCallback := make(chan struct{})
	var got collector
	a1, err := e.Register(fmt.Sprintf(sqlA, 10), Options{Mode: Incremental, OnResult: func(r *Result) {
		got.add(r)
		blocked.Do(func() {
			close(inCallback)
			<-release
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Register(fmt.Sprintf(sqlA, 20), Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Register(`SELECT count(*) FROM s [RANGE 4 SLIDE 4]`, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	if a1.grp != a2.grp || a1.grp == b.grp {
		t.Fatal("a1 and a2 must form one slide group, b another")
	}
	e.Start()
	defer e.Stop()
	feed(e, 0, 8)
	<-inCallback
	feed(e, 8, 32)
	waitWindows(t, b, 8) // b keeps emitting while a1 is blocked

	deregistered := make(chan struct{})
	go func() { e.Deregister(a2); close(deregistered) }()
	select {
	case <-deregistered:
	case <-time.After(5 * time.Second):
		t.Fatal("Deregister of a look-alike hung behind the blocked member")
	}
	left := a2.Windows()
	close(release)
	feed(e, 32, rows)
	waitWindows(t, a1, rows/4-1)
	waitWindows(t, b, rows/4)
	e.Stop()
	if n := a2.Windows(); n != left {
		t.Fatalf("deregistered look-alike emitted %d windows after Deregister returned", n-left)
	}

	ref := schedEngine(t)
	var want collector
	if _, err := ref.Register(fmt.Sprintf(sqlA, 10), Options{Mode: Incremental, OnResult: want.add}); err != nil {
		t.Fatal(err)
	}
	feed(ref, 0, rows)
	if _, err := ref.Pump(); err != nil {
		t.Fatal(err)
	}
	if len(got.results) != len(want.results) {
		t.Fatalf("blocked member emitted %d windows, want %d", len(got.results), len(want.results))
	}
	for w, r := range want.results {
		if g := got.results[w]; g.Window != r.Window || tableKey(g.Table, false) != tableKey(r.Table, false) {
			t.Fatalf("window %d: got #%d %s, want #%d %s", w+1, g.Window, tableKey(g.Table, false), r.Window, tableKey(r.Table, false))
		}
	}
}

// TestGroupMemoKeyedByRange registers two look-alike time-window queries
// whose slides start at one log position but end at different ones: the
// second registers where the first's slide starts, and its first tuple
// sits half a slide off the first's grid. One step fires both, so a memo
// keyed by slide start alone would hand the second the first's slot file.
// Each must equal a Baseline twin registered alongside it.
func TestGroupMemoKeyedByRange(t *testing.T) {
	const sql = `SELECT x1, sum(x2), count(*) FROM s [RANGE 4 SECONDS SLIDE 1 SECONDS] GROUP BY x1`
	e := schedEngine(t)
	var cs [4]collector
	var qs [4]*ContinuousQuery
	register := func(i int) {
		var err error
		if qs[i], err = e.Register(sql, Options{Mode: Incremental, Baseline: i%2 == 1, OnResult: cs[i].add}); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(from, to int64) { // one tuple per 100 ms in [from, to) ms
		t.Helper()
		var rows [][]vector.Value
		var ts []int64
		for ms := from; ms < to; ms += 100 {
			rows = append(rows, []vector.Value{vector.IntValue(ms / 100 % 3), vector.IntValue(ms)})
			ts = append(ts, ms*1000)
		}
		if err := e.AppendRows("s", rows, ts); err != nil {
			t.Fatal(err)
		}
		if err := e.SetWatermark("s", to*1000); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	register(0)
	register(1)
	feed(0, 3000)
	register(2)
	register(3)
	if qs[0].grp != qs[2].grp {
		t.Fatal("the look-alikes must form one slide group")
	}
	feed(3500, 12000)
	for i := 0; i < 4; i += 2 {
		got, want := cs[i].results, cs[i+1].results
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("query %d: %d windows, Baseline twin %d", i, len(got), len(want))
		}
		for w := range got {
			if tableKey(got[w].Table, false) != tableKey(want[w].Table, false) {
				t.Fatalf("query %d window %d differs from its Baseline twin", i, w+1)
			}
		}
	}
}
