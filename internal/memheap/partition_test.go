package memheap

import (
	"errors"
	"testing"

	"votm/internal/stm"
)

// conserved checks the allocator's conservation law: every word below the
// limit is allocated, allocatable or evicted.
func conserved(t *testing.T, a *Allocator, evicted int) {
	t.Helper()
	if inUse, free := a.InUse(), a.FreeWords(); inUse+free+evicted != a.Limit() {
		t.Errorf("inUse %d + free %d + evicted %d != limit %d", inUse, free, evicted, a.Limit())
	}
}

func TestEvictMovesBlocksAndFreeSpace(t *testing.T) {
	a := New(256)
	b1, _ := a.Alloc(16) // [0,16)
	b2, _ := a.Alloc(16) // [16,32)
	b3, _ := a.Alloc(16) // [32,48)
	if b1 != 0 || b2 != 16 || b3 != 32 {
		t.Fatalf("unexpected layout: %d %d %d", b1, b2, b3)
	}
	blocks, err := a.Evict([]Range{{Lo: 16, Hi: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || blocks[0] != (Block{Base: 16, Size: 16}) || blocks[1] != (Block{Base: 32, Size: 16}) {
		t.Fatalf("evicted blocks = %+v", blocks)
	}
	if a.InUse() != 16 || a.BlockSize(b1) != 16 || a.BlockSize(b2) != 0 {
		t.Errorf("post-evict: inUse=%d b1=%d b2=%d", a.InUse(), a.BlockSize(b1), a.BlockSize(b2))
	}
	// Evicted words are not free words: [128,256) is what is left to allocate.
	if a.FreeWords() != 128 {
		t.Errorf("free after evicting [16,128) = %d, want 128", a.FreeWords())
	}
	conserved(t, a, 112)
	// The evicted range is gone: an allocation that would need it fails.
	if _, err := a.Alloc(200); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc(200) after evict: %v", err)
	}
	// But the remaining free space [128,256) still serves.
	if addr, err := a.Alloc(128); err != nil || addr != 128 {
		t.Errorf("Alloc(128) = %d, %v", addr, err)
	}
}

func TestEvictRejectsStraddlingBlock(t *testing.T) {
	a := New(64)
	if _, err := a.Alloc(16); err != nil { // [0,16)
		t.Fatal(err)
	}
	if _, err := a.Evict([]Range{{Lo: 8, Hi: 32}}); !errors.Is(err, ErrStraddle) {
		t.Fatalf("straddling evict: %v", err)
	}
	// Unchanged: the block is still allocated, free space intact.
	if a.InUse() != 16 || a.FreeWords() != 48 {
		t.Errorf("after failed evict: inUse=%d free=%d", a.InUse(), a.FreeWords())
	}
	conserved(t, a, 0)
}

func TestEvictRejectsAbsentWords(t *testing.T) {
	a := New(64)
	if _, err := a.Evict([]Range{{Lo: 0, Hi: 32}}); err != nil {
		t.Fatal(err)
	}
	// Second evict of an overlapping range: those words are gone.
	if _, err := a.Evict([]Range{{Lo: 16, Hi: 48}}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("re-evict: %v", err)
	}
	if _, err := a.Evict([]Range{{Lo: 32, Hi: 80}}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("beyond-limit evict: %v", err)
	}
	conserved(t, a, 32)
}

func TestReleaseRestoresEvictedRange(t *testing.T) {
	a := New(64)
	if _, err := a.Evict([]Range{{Lo: 0, Hi: 32}}); err != nil {
		t.Fatal(err)
	}
	conserved(t, a, 32)
	if err := a.Release([]Range{{Lo: 0, Hi: 32}}); err != nil {
		t.Fatal(err)
	}
	conserved(t, a, 0)
	if a.FreeWords() != 64 {
		t.Errorf("free after release = %d", a.FreeWords())
	}
	// Coalesced back into one span: a full-size allocation works.
	if addr, err := a.Alloc(64); err != nil || addr != 0 {
		t.Errorf("Alloc(64) = %d, %v", addr, err)
	}
	if err := a.Release([]Range{{Lo: 0, Hi: 8}}); err == nil {
		t.Error("release over allocated block succeeded")
	}
}

func TestRestrictAndAdoptShapeChildAllocator(t *testing.T) {
	parent := New(128)
	pb, _ := parent.Alloc(8) // [0,8) — stays with the parent
	hot, _ := parent.Alloc(8)
	_ = pb
	if hot != 8 {
		t.Fatalf("hot block at %d", hot)
	}
	blocks, err := parent.Evict([]Range{{Lo: 8, Hi: 64}})
	if err != nil {
		t.Fatal(err)
	}

	child := New(128)
	if err := child.Restrict([]Range{{Lo: 8, Hi: 64}}); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := child.Adopt(b.Base, b.Size); err != nil {
			t.Fatal(err)
		}
	}
	if child.InUse() != 8 || child.BlockSize(stm.Addr(8)) != 8 {
		t.Errorf("child after adopt: inUse=%d size=%d", child.InUse(), child.BlockSize(stm.Addr(8)))
	}
	conserved(t, parent, 56)
	conserved(t, child, 128-56)
	// Child allocations land inside its ranges only.
	addr, err := child.Alloc(48)
	if err != nil || addr != 16 {
		t.Fatalf("child Alloc(48) = %d, %v", addr, err)
	}
	if _, err := child.Alloc(16); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("child over-alloc: %v", err)
	}
	// Freeing the adopted block works in the child.
	if err := child.Free(stm.Addr(8)); err != nil {
		t.Errorf("child free of adopted block: %v", err)
	}
}

func TestRestrictRejectsLiveAllocations(t *testing.T) {
	a := New(64)
	if _, err := a.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if err := a.Restrict([]Range{{Lo: 0, Hi: 32}}); err == nil {
		t.Error("Restrict with live allocations succeeded")
	}
}

func TestNormalizeRangesRejectsBadInput(t *testing.T) {
	for _, rs := range [][]Range{
		nil,
		{{Lo: 8, Hi: 8}},
		{{Lo: 16, Hi: 8}},
		{{Lo: -1, Hi: 8}},
		{{Lo: 0, Hi: 16}, {Lo: 8, Hi: 24}},
	} {
		if _, err := normalizeRanges(rs); err == nil {
			t.Errorf("normalizeRanges(%v) accepted", rs)
		}
	}
	got, err := normalizeRanges([]Range{{Lo: 16, Hi: 24}, {Lo: 0, Hi: 8}, {Lo: 8, Hi: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (Range{Lo: 0, Hi: 24}) {
		t.Errorf("merged = %v", got)
	}
}

// A freed small block waits in a bin, outside the span list the partition
// calls reason about: each of them must still see its words as free.
func TestPartitionCallsSeeBinnedWords(t *testing.T) {
	binned := func() *Allocator { // [0,8) in a bin, [8,64) in the span list
		a := New(64)
		b, _ := a.Alloc(8)
		if err := a.Free(b); err != nil {
			t.Fatal(err)
		}
		return a
	}
	if err := binned().Adopt(0, 8); err != nil {
		t.Errorf("Adopt over binned words: %v", err)
	}
	if err := binned().Restrict([]Range{{Lo: 0, Hi: 16}}); err != nil {
		t.Errorf("Restrict over binned words: %v", err)
	}
	if err := binned().Release([]Range{{Lo: 0, Hi: 8}}); err == nil {
		t.Error("Release over binned words succeeded")
	}
	a := binned()
	if blocks, err := a.Evict([]Range{{Lo: 0, Hi: 16}}); err != nil || len(blocks) != 0 {
		t.Errorf("Evict over binned words = %v, %v", blocks, err)
	}
	conserved(t, a, 16)
}
