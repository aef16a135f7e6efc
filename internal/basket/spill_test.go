package basket

import (
	"testing"

	"datacell/internal/catalog"
	"datacell/internal/storage"
	"datacell/internal/vector"
)

func spillSchema() catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "x1", Type: vector.Int64},
		catalog.Column{Name: "x2", Type: vector.Str},
	)
}

func openStream(t *testing.T, root string) *storage.StreamLog {
	t.Helper()
	d, err := storage.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Stream("s", spillSchema())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fill appends rows [from, to) in batches of batch rows.
func fill(t *testing.T, b *Basket, from, to, batch int) {
	t.Helper()
	for lo := from; lo < to; lo += batch {
		hi := lo + batch
		if hi > to {
			hi = to
		}
		ints := make([]int64, 0, hi-lo)
		strs := make([]string, 0, hi-lo)
		ts := make([]int64, 0, hi-lo)
		for v := lo; v < hi; v++ {
			ints = append(ints, int64(v))
			strs = append(strs, "v"+string(rune('0'+v%10)))
			ts = append(ts, int64(v))
		}
		b.Lock()
		err := b.AppendColumnsLocked([]*vector.Vector{vector.FromInt64(ints), vector.FromStr(strs)}, ts)
		b.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkRange asserts the cursor sees values [from, to) in order.
func checkRange(t *testing.T, c *Cursor, from, to int) {
	t.Helper()
	c.Lock()
	v := c.ViewLocked(0, to-from)
	c.Unlock()
	cols := v.Cols()
	ints := cols[0].Int64s()
	strs := cols[1].Strs()
	for i := 0; i < to-from; i++ {
		want := from + i
		if ints[i] != int64(want) {
			t.Fatalf("row %d: x1 = %d, want %d", i, ints[i], want)
		}
		if wantS := "v" + string(rune('0'+want%10)); strs[i] != wantS {
			t.Fatalf("row %d: x2 = %q, want %q", i, strs[i], wantS)
		}
	}
}

func TestSpillEvictsAndFetchesBack(t *testing.T) {
	l := openStream(t, t.TempDir())
	// Tiny budget: only ~1 sealed segment of 16 rows fits.
	b := NewStored("s", spillSchema(), 16, l, 500)
	c := b.NewCursor()
	fill(t, b, 0, 100, 7)

	st := b.StorageStats()
	if !st.Durable {
		t.Fatal("stream log not durable")
	}
	if st.Cold == 0 {
		t.Fatalf("no segments evicted under a 500-byte budget: %+v", st)
	}
	if st.ResidentBytes > 500+8*16*4 { // budget plus one segment of slack
		t.Fatalf("resident bytes %d way over budget", st.ResidentBytes)
	}

	// Reading the full range must fetch cold segments back and return
	// exactly the appended values.
	checkRange(t, c, 0, 100)
	if got := b.StorageStats().Fetches; got == 0 {
		t.Fatal("full-range read did not fetch any cold segment")
	}
}

func TestSpillTimestampsStayResident(t *testing.T) {
	l := openStream(t, t.TempDir())
	b := NewStored("s", spillSchema(), 16, l, 1)
	c := b.NewCursor()
	fill(t, b, 0, 64, 16)
	if b.StorageStats().Cold == 0 {
		t.Fatal("expected cold segments")
	}
	before := b.StorageStats().Fetches

	b.Lock()
	ts := c.TimestampsLocked(0, 64)
	n := c.CountUntilLocked(40)
	b.Unlock()
	for i, v := range ts {
		if v != int64(i) {
			t.Fatalf("ts[%d] = %d", i, v)
		}
	}
	if n != 40 {
		t.Fatalf("CountUntilLocked(40) = %d", n)
	}
	if got := b.StorageStats().Fetches; got != before {
		t.Fatalf("timestamp reads fetched %d cold segments", got-before)
	}
}

func TestSpillViewSurvivesEviction(t *testing.T) {
	l := openStream(t, t.TempDir())
	b := NewStored("s", spillSchema(), 16, l, 0) // no budget yet
	c := b.NewCursor()
	fill(t, b, 0, 48, 16)

	b.Lock()
	v := c.ViewLocked(0, 32)
	b.Unlock()

	// Shrink the budget so everything sealed spills; the already-cut view
	// still aliases the old payloads and must keep reading correctly.
	b.SetRAMBudget(1)
	if b.StorageStats().Cold == 0 {
		t.Fatal("expected cold segments after budget shrink")
	}
	cols := v.Cols()
	for i := 0; i < 32; i++ {
		if cols[0].Int64s()[i] != int64(i) {
			t.Fatalf("view row %d = %d after eviction", i, cols[0].Int64s()[i])
		}
	}
}

func TestRestoreContinuesLog(t *testing.T) {
	root := t.TempDir()
	l := openStream(t, root)
	b := NewStored("s", spillSchema(), 16, l, 0)
	b.NewCursor()        // pin the whole log, like a standing query's cursor
	fill(t, b, 0, 40, 8) // 2 sealed segments + 8-row tail
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openStream(t, root)
	recovered, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	b2 := Restore("s", spillSchema(), 16, l2, 0, recovered)
	if got := b2.Appended(); got != 40 {
		t.Fatalf("Appended = %d, want 40", got)
	}
	c := b2.NewCursorAt(0)
	checkRange(t, c, 0, 40)

	// Appends continue in the same row space and seal cleanly.
	fill(t, b2, 40, 72, 8)
	checkRange(t, c, 0, 72)
	if got := b2.Appended(); got != 72 {
		t.Fatalf("Appended = %d, want 72", got)
	}
}

func TestRestoreAllSealed(t *testing.T) {
	root := t.TempDir()
	l := openStream(t, root)
	b := NewStored("s", spillSchema(), 16, l, 0)
	b.NewCursor()         // pin the whole log, like a standing query's cursor
	fill(t, b, 0, 32, 16) // exactly 2 sealed segments, empty tail
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openStream(t, root)
	recovered, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	b2 := Restore("s", spillSchema(), 16, l2, 0, recovered)
	if got := b2.Appended(); got != 32 {
		t.Fatalf("Appended = %d, want 32", got)
	}
	fill(t, b2, 32, 40, 8)
	c := b2.NewCursorAt(0)
	checkRange(t, c, 0, 40)
}

func TestNewCursorAtClamps(t *testing.T) {
	b := New("s", spillSchema())
	fill(t, b, 0, 10, 10)
	if c := b.NewCursorAt(-5); c.Len() != 10 {
		t.Fatalf("clamped-low cursor sees %d rows, want 10", c.Len())
	}
	if c := b.NewCursorAt(99); c.Len() != 0 {
		t.Fatalf("clamped-high cursor sees %d rows, want 0", c.Len())
	}
	if c := b.NewCursorAt(4); c.Len() != 6 {
		t.Fatalf("mid cursor sees %d rows, want 6", c.Len())
	}
}

func TestStorageStatsFilesFollowReplayFloor(t *testing.T) {
	b := NewStored("s", spillSchema(), 16, openStream(t, t.TempDir()), 0)
	pinned := b.NewCursor() // registration offset 0 pins every file
	fill(t, b, 0, 160, 16)
	if got := b.StorageStats().Files; got != 10 {
		t.Fatalf("Files = %d, want 10 sealed segment files", got)
	}

	// A later query keeps the floor at its own registration offset once
	// the pinning query goes.
	later := b.NewCursor() // start 160
	pinned.Close()
	if got := b.StorageStats().Files; got != 0 {
		t.Fatalf("Files = %d after the floor passed every file, want 0", got)
	}
	later.Lock()
	later.AdvanceLocked(later.LenLocked())
	later.Unlock()
	fill(t, b, 160, 200, 8)
	if got := b.StorageStats().Files; got != 3 {
		t.Fatalf("Files = %d, want 2 sealed + 1 tail", got)
	}
}

func TestMemoryStoreReportsNoFiles(t *testing.T) {
	b := NewWithSeal("s", spillSchema(), 4)
	fill(t, b, 0, 20, 4)
	if got := b.StorageStats().Files; got != 0 {
		t.Fatalf("Files = %d for a memory store, want 0", got)
	}
}
