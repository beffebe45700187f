package memheap

import (
	"errors"
	"slices"
	"testing"

	"votm/internal/stm"
)

// Word states of the fuzz oracle; an allocated word holds 1 + the base of
// its block.
const (
	wordFree   = 0
	wordAbsent = -1
)

// heapModel is the fuzz target's oracle for one allocator: the owner of
// every word, kept by the test from what the allocator answered.
type heapModel struct {
	t     *testing.T
	a     *Allocator
	owner []int
	live  []Block
}

func newHeapModel(t *testing.T, limit int) *heapModel {
	return &heapModel{t: t, a: New(limit), owner: make([]int, limit)}
}

// place records a block the allocator handed out (or adopted): it must lie
// inside the limit, over words that were free.
func (m *heapModel) place(b Block) {
	m.t.Helper()
	lo, hi := int(b.Base), int(b.Base)+b.Size
	if hi > len(m.owner) {
		m.t.Fatalf("block [%d,%d) beyond limit %d", lo, hi, len(m.owner))
	}
	for w := lo; w < hi; w++ {
		if m.owner[w] != wordFree {
			m.t.Fatalf("block [%d,%d) handed out over word %d (state %d)", lo, hi, w, m.owner[w])
		}
		m.owner[w] = lo + 1
	}
	m.live = append(m.live, b)
}

// drop forgets live block k, leaving its words free.
func (m *heapModel) drop(k int) Block {
	b := m.live[k]
	m.fill(Range{Lo: int(b.Base), Hi: int(b.Base) + b.Size}, wordFree)
	m.live = slices.Delete(m.live, k, k+1)
	return b
}

func (m *heapModel) fill(r Range, state int) {
	for w := r.Lo; w < r.Hi; w++ {
		m.owner[w] = state
	}
}

// hasRun reports whether n contiguous words are free.
func (m *heapModel) hasRun(n int) bool {
	run := 0
	for _, o := range m.owner {
		if o != wordFree {
			run = 0
		} else if run++; run >= n {
			return true
		}
	}
	return false
}

// blocksIn returns the live blocks inside r, by base.
func (m *heapModel) blocksIn(r Range) []Block {
	var in []Block
	for _, b := range m.live {
		if int(b.Base) >= r.Lo && int(b.Base) < r.Hi {
			in = append(in, b)
		}
	}
	slices.SortFunc(in, func(x, y Block) int { return int(x.Base) - int(y.Base) })
	return in
}

// widen moves r's ends outward to the boundaries of the blocks they cut.
func (m *heapModel) widen(r Range) Range {
	for r.Lo > 0 && m.owner[r.Lo] > 0 && m.owner[r.Lo-1] == m.owner[r.Lo] {
		r.Lo--
	}
	for r.Hi < len(m.owner) && m.owner[r.Hi-1] > 0 && m.owner[r.Hi] == m.owner[r.Hi-1] {
		r.Hi++
	}
	return r
}

// badAddr returns an address that is not the base of a live block: inside a
// block, a free word, an evicted word, or (also when there is none of the
// kind asked for) past the limit.
func (m *heapModel) badAddr(kind int) stm.Addr {
	switch kind % 5 {
	case 0:
		for _, b := range m.live {
			if b.Size > 1 {
				return b.Base + stm.Addr(b.Size-1)
			}
		}
	case 1:
		if w := slices.Index(m.owner, wordFree); w >= 0 {
			return stm.Addr(w)
		}
	case 2:
		if w := slices.Index(m.owner, wordAbsent); w >= 0 {
			return stm.Addr(w)
		}
	}
	return stm.Addr(len(m.owner) + kind)
}

// check holds the allocator's counters against the oracle. With the evicted
// words it is the conservation law InUse + FreeWords + evicted == Limit.
func (m *heapModel) check() {
	m.t.Helper()
	free, absent := 0, 0
	for _, o := range m.owner {
		switch o {
		case wordFree:
			free++
		case wordAbsent:
			absent++
		}
	}
	inUse := len(m.owner) - free - absent
	if m.a.Limit() != len(m.owner) || m.a.InUse() != inUse || m.a.FreeWords() != free {
		m.t.Fatalf("limit/inUse/free = %d/%d/%d, oracle %d/%d/%d (%d evicted)",
			m.a.Limit(), m.a.InUse(), m.a.FreeWords(), len(m.owner), inUse, free, absent)
	}
}

// checkBlockSizes reads the whole size table: every live block's size at its
// base and 0 at every other word, so the allocator knows no block the oracle
// does not.
func (m *heapModel) checkBlockSizes() {
	m.t.Helper()
	want := make([]int, len(m.owner))
	for _, b := range m.live {
		want[b.Base] = b.Size
	}
	for w, size := range want {
		if got := m.a.BlockSize(stm.Addr(w)); got != size {
			m.t.Fatalf("BlockSize(%d) = %d, want %d", w, got, size)
		}
	}
}

// alloc runs one Alloc. A refusal must be ErrOutOfMemory and honest: the
// oracle has no free run of that length either.
func (m *heapModel) alloc(size int) {
	m.t.Helper()
	base, err := m.a.Alloc(size)
	if err == nil {
		m.place(Block{Base: base, Size: size})
		return
	}
	if !errors.Is(err, ErrOutOfMemory) {
		m.t.Fatalf("Alloc(%d): %v", size, err)
	}
	if m.hasRun(size) {
		m.t.Fatalf("Alloc(%d) refused with a free run of that length present", size)
	}
}

func (m *heapModel) free(k int) {
	m.t.Helper()
	if err := m.a.Free(m.live[k].Base); err != nil {
		m.t.Fatalf("free of live block %+v: %v", m.live[k], err)
	}
	m.drop(k)
}

// moveTo evicts r from m and hands its blocks to dst, whose words of r are
// absent: dst makes them allocatable with prepare, then adopts the blocks.
func (m *heapModel) moveTo(dst *heapModel, r Range, prepare func([]Range) error) {
	m.t.Helper()
	want := m.blocksIn(r)
	got, err := m.a.Evict([]Range{r})
	if err != nil {
		m.t.Fatalf("Evict(%v): %v", r, err)
	}
	if !slices.Equal(got, want) {
		m.t.Fatalf("Evict(%v) = %+v, oracle %+v", r, got, want)
	}
	m.live = slices.DeleteFunc(m.live, func(b Block) bool { return slices.Contains(got, b) })
	m.fill(r, wordAbsent)
	if err := prepare([]Range{r}); err != nil {
		m.t.Fatalf("prepare %v at the destination: %v", r, err)
	}
	dst.fill(r, wordFree)
	for _, b := range got {
		if err := dst.a.Adopt(b.Base, b.Size); err != nil {
			m.t.Fatalf("Adopt(%+v): %v", b, err)
		}
		dst.place(b)
	}
}

const (
	opAlloc = iota
	opFree
	opGrow
	opAllocBatch
	opAllocBatchFail
	opFreeBatchBad
	opBadFree
	opSplit
	opMerge
	opBadPartition
	opCount

	onChild = 0x80 // op bit: address the split child, if there is one
)

// fuzzSize maps an argument byte to a block size: mostly binned sizes and the
// ones just above the bin limit, sometimes a large block.
func fuzzSize(b int) int {
	if b < 224 {
		return b%96 + 1
	}
	return 65 + (b-224)*20
}

// FuzzAllocFree interprets the fuzz input as an op program over an allocator
// — and, between a split and a merge op, over the Restricted child that
// adopted one of its ranges — and checks both against a per-word owner map:
// blocks never overlap, never leave the limit or enter evicted words; the
// counters obey the conservation law after every op; an all-or-nothing batch
// that fails, a bad free (double, interior, free word, evicted word, beyond
// the limit) and a refused partition call mutate nothing; ErrOutOfMemory is
// only reported when no free run of that length exists; every live block
// keeps its size across a split and a merge; and freeing everything restores
// full capacity as one span.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 0, 255, 8})
	f.Add([]byte{10, 20, 30})
	f.Add([]byte{0})
	// Blocks of 9, 71 and 185 words, two freed (bins non-empty), a split that
	// moves [0,98), both sides allocating and freeing, every kind of bad free
	// and refused partition call on each, batches that fit, that must fail
	// and that free around a bad address, a merge back with bins non-empty
	// on both sides.
	f.Add([]byte{
		opAlloc, 8, opAlloc, 8, opAlloc, 8, opAlloc, 70, opAlloc, 8, opAlloc, 230,
		opFree, 1, opFree, 0,
		opSplit, 0, 3,
		opAlloc, 8, opAlloc | onChild, 8, opAlloc | onChild, 3, opFree | onChild, 2, opFree, 2,
		opBadFree, 0, opBadFree, 1, opBadFree, 2, opBadFree, 3,
		opBadFree | onChild, 0, opBadFree | onChild, 1, opBadFree | onChild, 2, opBadFree | onChild, 3,
		opBadPartition, opBadPartition | onChild,
		opAllocBatch | onChild, 1, 8, 3, opAllocBatch, 2, 8, 70, 8,
		opAllocBatchFail, 8, 8, opAllocBatchFail | onChild, 3, 3,
		opBadFree, 4, opBadFree | onChild, 4,
		opFreeBatchBad, 0, 1, 0, opFreeBatchBad | onChild, 1, 0, 1,
		opGrow, opAlloc | onChild, 230, opAlloc, 230,
		opFree | onChild, 0, opFree, 0,
		opMerge, opAlloc, 255,
	})
	// Exhaust the heap through the bins: every free word sits in a bin when a
	// larger block is asked for, so the allocation succeeds only by merging.
	exhaust := []byte{}
	for i := 0; i < 70; i++ {
		exhaust = append(exhaust, opAlloc, 63)
	}
	for i := 0; i < 64; i++ {
		exhaust = append(exhaust, opFree, 0)
	}
	f.Add(append(exhaust, opAlloc, 255, opAlloc, 255, opAlloc, 255, opAlloc, 255))

	f.Fuzz(func(t *testing.T, prog []byte) {
		const limit = 1 << 12
		parent := newHeapModel(t, limit)
		var child *heapModel
		var moved Range
		merge := func() {
			child.moveTo(parent, moved, parent.a.Release)
			if child.a.InUse() != 0 || child.a.FreeWords() != 0 {
				t.Fatalf("merged-away child keeps %d words in use, %d free", child.a.InUse(), child.a.FreeWords())
			}
			child = nil
		}
		grown, pc := 0, 0
		arg := func() int {
			if pc == len(prog) {
				return 0
			}
			pc++
			return int(prog[pc-1])
		}
		for pc < len(prog) {
			op := arg()
			m := parent
			if child != nil && op&onChild != 0 {
				m = child
			}
			switch (op &^ onChild) % opCount {
			case opAlloc:
				m.alloc(fuzzSize(arg()))
			case opFree:
				if k := arg(); len(m.live) > 0 {
					m.free(k % len(m.live))
				}
			case opGrow:
				if grown < 4 {
					parent.a.Grow(64)
					parent.owner = append(parent.owner, make([]int, 64)...)
					grown++
				}
			case opAllocBatch:
				sizes := make([]int, 1+arg()%4)
				for i := range sizes {
					sizes[i] = fuzzSize(arg())
				}
				got, err := m.a.AllocBatch(sizes, nil)
				if err != nil && (!errors.Is(err, ErrOutOfMemory) || len(got) != 0) {
					t.Fatalf("AllocBatch(%v) = %v, %v", sizes, got, err)
				}
				for i, base := range got {
					m.place(Block{Base: base, Size: sizes[i]})
				}
			case opAllocBatchFail:
				sizes := []int{fuzzSize(arg()), fuzzSize(arg()), len(m.owner) + 1}
				if got, err := m.a.AllocBatch(sizes, nil); !errors.Is(err, ErrOutOfMemory) || len(got) != 0 {
					t.Fatalf("AllocBatch(%v) = %v, %v", sizes, got, err)
				}
				m.checkBlockSizes()
			case opFreeBatchBad:
				kx, ky, kind := arg(), arg(), arg()
				if len(m.live) < 2 {
					break
				}
				x := m.drop(kx % len(m.live))
				y := m.drop(ky % len(m.live))
				bad := m.badAddr(kind)
				if err := m.a.FreeBatch([]stm.Addr{x.Base, bad, y.Base}); !errors.Is(err, ErrBadFree) {
					t.Fatalf("FreeBatch with bad address %d in the middle: %v", bad, err)
				}
			case opBadFree:
				kind := arg()
				bad := m.badAddr(kind)
				if kind%5 == 4 && len(m.live) > 0 { // a double free
					bad = m.live[0].Base
					m.free(0)
				}
				if err := m.a.Free(bad); !errors.Is(err, ErrBadFree) {
					t.Fatalf("Free(%d) of no block base: %v", bad, err)
				}
			case opSplit:
				lo, n := arg()*16%len(parent.owner), 1+arg()
				if child != nil {
					break
				}
				moved = parent.widen(Range{Lo: lo, Hi: min(lo+n*16, len(parent.owner))})
				child = newHeapModel(t, len(parent.owner))
				child.fill(Range{Hi: len(child.owner)}, wordAbsent)
				parent.moveTo(child, moved, child.a.Restrict)
			case opMerge:
				if child != nil {
					merge()
				}
			case opBadPartition:
				// A range that cuts a block on its left, one that cuts it on
				// its right, words that are evicted, words that are present.
				for _, b := range m.live {
					if b.Size > 1 {
						lo, hi := int(b.Base), int(b.Base)+b.Size
						if _, err := m.a.Evict([]Range{{Lo: lo + 1, Hi: hi}}); !errors.Is(err, ErrStraddle) {
							t.Fatalf("Evict cutting %+v on the left: %v", b, err)
						}
						if _, err := m.a.Evict([]Range{{Lo: lo, Hi: hi - 1}}); !errors.Is(err, ErrStraddle) {
							t.Fatalf("Evict cutting %+v on the right: %v", b, err)
						}
						if err := m.a.Release([]Range{{Lo: hi - 1, Hi: hi}}); err == nil {
							t.Fatalf("Release inside %+v succeeded", b)
						}
						if err := m.a.Adopt(b.Base, b.Size); !errors.Is(err, ErrNotOwned) {
							t.Fatalf("Adopt over live %+v: %v", b, err)
						}
						break
					}
				}
				if w := slices.Index(m.owner, wordAbsent); w >= 0 {
					if _, err := m.a.Evict([]Range{{Lo: w, Hi: w + 1}}); !errors.Is(err, ErrNotOwned) {
						t.Fatalf("Evict of evicted word %d: %v", w, err)
					}
				}
				if w := slices.Index(m.owner, wordFree); w >= 0 {
					if err := m.a.Release([]Range{{Lo: w, Hi: w + 1}}); err == nil {
						t.Fatalf("Release of free word %d succeeded", w)
					}
				}
			}
			parent.check()
			if child != nil {
				child.check()
			}
		}
		if child != nil {
			merge()
		}
		parent.checkBlockSizes()
		for len(parent.live) > 0 {
			parent.free(0)
		}
		parent.check()
		if _, err := parent.a.Alloc(parent.a.Limit()); err != nil {
			t.Fatalf("full-capacity alloc after freeing all: %v", err)
		}
	})
}
