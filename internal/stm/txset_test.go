package stm

import (
	"testing"
)

func TestTableBasic(t *testing.T) {
	var tb Table[uint64]
	if n := tb.Len(); n != 0 {
		t.Fatalf("zero table Len = %d, want 0", n)
	}
	if _, ok := tb.Get(0); ok {
		t.Fatal("zero table Get(0) reported a hit")
	}
	tb.Put(3, 30)
	tb.Put(0, 99) // addr 0 is a valid key, not a sentinel
	tb.Put(3, 31) // update in place
	if got := tb.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if v, ok := tb.Get(3); !ok || v != 31 {
		t.Fatalf("Get(3) = %d,%v, want 31,true", v, ok)
	}
	if v, ok := tb.Get(0); !ok || v != 99 {
		t.Fatalf("Get(0) = %d,%v, want 99,true", v, ok)
	}
	if _, ok := tb.Get(4); ok {
		t.Fatal("Get(4) reported a hit for a missing key")
	}
}

func TestTableSpillBoundary(t *testing.T) {
	var tb Table[uint64]
	for i := Addr(0); i < tableSmallMax; i++ {
		tb.Put(i*7, uint64(i))
		if tb.big != nil {
			t.Fatalf("spilled after %d inserts, threshold is %d", i+1, tableSmallMax)
		}
	}
	// Updates at the boundary must not force a spill.
	tb.Put(0, 1000)
	if tb.big != nil {
		t.Fatal("update of an existing key forced a spill")
	}
	// The next distinct key crosses the threshold.
	tb.Put(9999, 42)
	if tb.big == nil {
		t.Fatalf("not spilled after %d distinct keys", tableSmallMax+1)
	}
	if got := tb.Len(); got != tableSmallMax+1 {
		t.Fatalf("Len = %d, want %d", got, tableSmallMax+1)
	}
	// Every pre-spill entry must have been rehashed over.
	for i := Addr(0); i < tableSmallMax; i++ {
		want := uint64(i)
		if i == 0 {
			want = 1000
		}
		if v, ok := tb.Get(i * 7); !ok || v != want {
			t.Fatalf("post-spill Get(%d) = %d,%v, want %d,true", i*7, v, ok, want)
		}
	}
	if v, ok := tb.Get(9999); !ok || v != 42 {
		t.Fatalf("Get(9999) = %d,%v, want 42,true", v, ok)
	}
}

func TestTableGrowth(t *testing.T) {
	var tb Table[uint64]
	const n = 5000
	for i := Addr(0); i < n; i++ {
		tb.Put(i, uint64(i)*3)
	}
	if got := tb.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := Addr(0); i < n; i++ {
		if v, ok := tb.Get(i); !ok || v != uint64(i)*3 {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", i, v, ok, uint64(i)*3)
		}
	}
	// Load factor invariant: an empty slot always exists.
	if 4*tb.Len() > 3*tb.Cap() {
		t.Fatalf("load factor exceeded 75%%: %d/%d", tb.Len(), tb.Cap())
	}
}

func TestTableResetRetainsCapacityAndDropsEntries(t *testing.T) {
	var tb Table[uint64]
	for i := Addr(0); i < 500; i++ {
		tb.Put(i, uint64(i))
	}
	capBefore := tb.Cap()
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tb.Len())
	}
	if tb.Cap() != capBefore {
		t.Fatalf("Cap after Reset = %d, want %d (spill table dropped)", tb.Cap(), capBefore)
	}
	for i := Addr(0); i < 500; i++ {
		if _, ok := tb.Get(i); ok {
			t.Fatalf("entry %d survived Reset", i)
		}
	}
	count := 0
	tb.Range(func(Addr, uint64) bool { count++; return true })
	if count != 0 {
		t.Fatalf("Range visited %d entries after Reset", count)
	}
}

func TestTableIteration(t *testing.T) {
	var tb Table[uint64]
	want := map[Addr]uint64{}
	for i := Addr(0); i < 40; i++ { // past the spill boundary
		tb.Put(i*13, uint64(i)+1)
		want[i*13] = uint64(i) + 1
	}
	got := map[Addr]uint64{}
	for i := 0; i < tb.Len(); i++ {
		a, v := tb.Entry(i)
		if _, dup := got[a]; dup {
			t.Fatalf("key %d appears twice in the journal", a)
		}
		got[a] = v
	}
	if len(got) != len(want) {
		t.Fatalf("iteration saw %d entries, want %d", len(got), len(want))
	}
	for a, v := range want {
		if got[a] != v {
			t.Fatalf("iteration [%d] = %d, want %d", a, got[a], v)
		}
	}
}

func TestTableGenerationWrap(t *testing.T) {
	var tb Table[uint64]
	tb.Put(7, 70)
	tb.gen = ^uint32(0) // force the next Reset to wrap
	tb.Reset()
	if tb.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", tb.gen)
	}
	if _, ok := tb.Get(7); ok {
		t.Fatal("stale entry aliased as live after generation wrap")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after wrap = %d, want 0", tb.Len())
	}
	tb.Put(7, 71)
	if v, ok := tb.Get(7); !ok || v != 71 {
		t.Fatalf("Get(7) after wrap = %d,%v, want 71,true", v, ok)
	}
}

func TestTableSteadyStateAllocFree(t *testing.T) {
	var tb Table[uint64]
	// Warm: reach the spill table once so capacity exists.
	for i := Addr(0); i < 200; i++ {
		tb.Put(i, uint64(i))
	}
	tb.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := Addr(0); i < 200; i++ {
			tb.Put(i, uint64(i))
		}
		for i := Addr(0); i < 200; i++ {
			if _, ok := tb.Get(i); !ok {
				t.Fatal("lost entry")
			}
		}
		tb.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Put/Get/Reset allocated %.1f times per run, want 0", allocs)
	}
}

func TestTableStructValues(t *testing.T) {
	type meta struct {
		prev   uint64
		stolen bool
	}
	var tb Table[meta]
	tb.Put(5, meta{prev: 11, stolen: true})
	tb.Put(6, meta{prev: 12})
	if v, ok := tb.Get(5); !ok || v.prev != 11 || !v.stolen {
		t.Fatalf("Get(5) = %+v,%v", v, ok)
	}
	tb.Reset()
	if _, ok := tb.Get(5); ok {
		t.Fatal("struct entry survived Reset")
	}
}
