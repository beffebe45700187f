package memheap

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"votm/internal/stm"
)

func TestAllocBasic(t *testing.T) {
	a := New(100)
	b1, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(20)
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 {
		t.Error("overlapping allocations")
	}
	if a.InUse() != 30 {
		t.Errorf("InUse = %d, want 30", a.InUse())
	}
	if a.FreeWords() != 70 {
		t.Errorf("FreeWords = %d, want 70", a.FreeWords())
	}
	if a.BlockSize(b1) != 10 || a.BlockSize(b2) != 20 {
		t.Error("BlockSize wrong")
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := New(16)
	if _, err := a.Alloc(16); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := New(16)
	b, _ := a.Alloc(16)
	if err := a.Free(b); err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(16)
	if err != nil {
		t.Fatalf("reuse after free failed: %v", err)
	}
	if b2 != b {
		t.Errorf("expected same base after full free, got %d vs %d", b2, b)
	}
}

func TestFreeCoalescing(t *testing.T) {
	a := New(30)
	b1, _ := a.Alloc(10)
	b2, _ := a.Alloc(10)
	b3, _ := a.Alloc(10)
	// Free middle, then left, then right: all must coalesce into one span.
	if err := a.Free(b2); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(30); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	a := New(16)
	b, _ := a.Alloc(8)
	if err := a.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: err = %v, want ErrBadFree", err)
	}
}

func TestFreeUnknown(t *testing.T) {
	a := New(16)
	if err := a.Free(3); !errors.Is(err, ErrBadFree) {
		t.Errorf("err = %v, want ErrBadFree", err)
	}
}

func TestAllocInvalidSize(t *testing.T) {
	a := New(16)
	if _, err := a.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := a.Alloc(-1); err == nil {
		t.Error("Alloc(-1) succeeded")
	}
}

func TestGrow(t *testing.T) {
	a := New(8)
	if _, err := a.Alloc(8); err != nil {
		t.Fatal(err)
	}
	a.Grow(8)
	if _, err := a.Alloc(8); err != nil {
		t.Fatalf("alloc from grown region failed: %v", err)
	}
	if a.InUse() != 16 {
		t.Errorf("InUse = %d after filling the grown heap, want 16", a.InUse())
	}
	a.Grow(0)  // no-op
	a.Grow(-3) // no-op
	if _, err := a.Alloc(1); err == nil {
		t.Errorf("no-op grows made room: a 1-word alloc succeeded on a full 16-word heap")
	}
	if a.InUse() != 16 {
		t.Errorf("InUse = %d after no-op grows, want 16", a.InUse())
	}
}

func TestGrowCoalescesWithTrailingFree(t *testing.T) {
	a := New(10)
	b, _ := a.Alloc(4) // free span now [4,10)
	_ = b
	a.Grow(10) // free span should coalesce into [4,20)
	if _, err := a.Alloc(16); err != nil {
		t.Fatalf("grow did not coalesce with trailing free span: %v", err)
	}
}

func TestZeroLimit(t *testing.T) {
	a := New(0)
	if _, err := a.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v", err)
	}
	a.Grow(4)
	if _, err := a.Alloc(4); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []stm.Addr
			for i := 0; i < 500; i++ {
				if len(mine) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(mine))
					if err := a.Free(mine[k]); err != nil {
						t.Errorf("free: %v", err)
						return
					}
					mine = append(mine[:k], mine[k+1:]...)
				} else {
					b, err := a.Alloc(rng.Intn(32) + 1)
					if err == nil {
						mine = append(mine, b)
					}
				}
			}
			for _, b := range mine {
				if err := a.Free(b); err != nil {
					t.Errorf("cleanup free: %v", err)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if a.InUse() != 0 {
		t.Errorf("InUse = %d after freeing everything", a.InUse())
	}
	if _, err := a.Alloc(1 << 16); err != nil {
		t.Errorf("full-heap alloc after churn failed (fragmentation bug): %v", err)
	}
}

// TestQuickNoOverlap property: any interleaving of allocs yields
// non-overlapping blocks that all fit in the limit.
func TestQuickNoOverlap(t *testing.T) {
	prop := func(sizes []uint8) bool {
		a := New(1 << 14)
		type blk struct {
			base stm.Addr
			size int
		}
		var blocks []blk
		for _, s := range sizes {
			size := int(s)%64 + 1
			b, err := a.Alloc(size)
			if err != nil {
				continue
			}
			blocks = append(blocks, blk{b, size})
		}
		// Check pairwise disjointness and bounds.
		for i := range blocks {
			bi := blocks[i]
			if int(bi.base)+bi.size > 1<<14 {
				return false
			}
			for j := i + 1; j < len(blocks); j++ {
				bj := blocks[j]
				if int(bi.base) < int(bj.base)+bj.size && int(bj.base) < int(bi.base)+bi.size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickFreeRestoresCapacity property: allocating k blocks and freeing
// them all always restores full capacity as one span.
func TestQuickFreeRestoresCapacity(t *testing.T) {
	prop := func(sizes []uint8, order []uint8) bool {
		const limit = 1 << 12
		a := New(limit)
		var blocks []stm.Addr
		for _, s := range sizes {
			b, err := a.Alloc(int(s)%32 + 1)
			if err != nil {
				break
			}
			blocks = append(blocks, b)
		}
		// Free in a permuted order derived from `order`.
		for len(blocks) > 0 {
			k := 0
			if len(order) > 0 {
				k = int(order[0]) % len(blocks)
				order = order[1:]
			}
			if a.Free(blocks[k]) != nil {
				return false
			}
			blocks = append(blocks[:k], blocks[k+1:]...)
		}
		if a.InUse() != 0 {
			return false
		}
		_, err := a.Alloc(limit)
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSmallBlockReusedBySize(t *testing.T) {
	a := New(256)
	b1, _ := a.Alloc(9)
	b2, _ := a.Alloc(9)
	if _, err := a.Alloc(12); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeBatch([]stm.Addr{b1, b2}); err != nil {
		t.Fatal(err)
	}
	// Another size does not take the freed 9-word blocks; the next two
	// allocations of 9 words do, last freed first.
	if b, _ := a.Alloc(8); b == b1 || b == b2 {
		t.Errorf("Alloc(8) took the freed 9-word block at %d", b)
	}
	if got, err := a.AllocBatch([]int{9, 9}, nil); err != nil || got[0] != b2 || got[1] != b1 {
		t.Errorf("AllocBatch(9, 9) = %v, %v; want [%d %d]", got, err, b2, b1)
	}
}

// A block in a bin is not coalesced with its neighbours, so an allocator
// whose free words all sit in bins must merge them before it refuses.
func TestBinsMergedBeforeOutOfMemory(t *testing.T) {
	a := New(64)
	var blocks []stm.Addr
	for i := 0; i < 8; i++ {
		b, err := a.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	for _, k := range []int{0, 1, 3, 5, 7} {
		if err := a.Free(blocks[k]); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeWords() != 40 || a.InUse() != 24 {
		t.Fatalf("free=%d inUse=%d, want 40 and 24", a.FreeWords(), a.InUse())
	}
	if b, err := a.Alloc(16); err != nil || b != blocks[0] {
		t.Errorf("Alloc(16) over two binned neighbours = %d, %v", b, err)
	}
	if _, err := a.Alloc(9); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc(9) with only 8-word holes left: %v", err)
	}
	if a.FreeWords() != 24 {
		t.Errorf("free after a refused allocation = %d, want 24", a.FreeWords())
	}
}

func TestFreeRejectsWhatIsNoBlockBase(t *testing.T) {
	a := New(64)
	b, _ := a.Alloc(16)
	for _, bad := range []stm.Addr{b + 1, b + 15, 16, 63, 64, 1 << 20} {
		if err := a.Free(bad); !errors.Is(err, ErrBadFree) {
			t.Errorf("Free(%d): %v, want ErrBadFree", bad, err)
		}
		if err := a.FreeBatch([]stm.Addr{bad}); !errors.Is(err, ErrBadFree) {
			t.Errorf("FreeBatch(%d): %v, want ErrBadFree", bad, err)
		}
		if a.BlockSize(bad) != 0 {
			t.Errorf("BlockSize(%d) = %d", bad, a.BlockSize(bad))
		}
	}
	if a.InUse() != 16 || a.BlockSize(b) != 16 || a.FreeWords() != 48 {
		t.Errorf("after bad frees: inUse=%d block=%d free=%d", a.InUse(), a.BlockSize(b), a.FreeWords())
	}
}

// The group path reserves and retires through AllocBatch and FreeBatch on
// every write group: warm, neither may allocate (bins and the size table are
// reused).
func TestWarmBatchAllocatesNothing(t *testing.T) {
	a := New(1 << 12)
	sizes := make([]int, 32)
	for i := range sizes {
		sizes[i] = 3 + i%12
	}
	addrs := make([]stm.Addr, 0, len(sizes))
	cycle := func() {
		var err error
		if addrs, err = a.AllocBatch(sizes, addrs[:0]); err != nil {
			t.Fatal(err)
		}
		if err = a.FreeBatch(addrs); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("warm AllocBatch+FreeBatch allocates %v times per cycle", n)
	}
}
