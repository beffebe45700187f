package memheap

import (
	"errors"
	"slices"
	"testing"

	"votm/internal/stm"
)

// wordFree is a free word in the fuzz oracle; an allocated word holds 1 +
// the base of its block.
const wordFree = 0

// block is one allocated block the oracle knows of.
type block struct {
	Base stm.Addr
	Size int
}

// heapModel is the fuzz target's oracle for one allocator: the owner of
// every word, kept by the test from what the allocator answered.
type heapModel struct {
	t     *testing.T
	a     *Allocator
	owner []int
	live  []block
}

func newHeapModel(t *testing.T, limit int) *heapModel {
	return &heapModel{t: t, a: New(limit), owner: make([]int, limit)}
}

// place records a block the allocator handed out: it must lie inside the
// limit, over words that were free.
func (m *heapModel) place(b block) {
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
func (m *heapModel) drop(k int) block {
	b := m.live[k]
	clear(m.owner[b.Base : int(b.Base)+b.Size])
	m.live = slices.Delete(m.live, k, k+1)
	return b
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

// badAddr returns an address that is not the base of a live block: inside a
// block, a free word, or (also when there is none of the kind asked for)
// past the limit.
func (m *heapModel) badAddr(kind int) stm.Addr {
	switch kind % 4 {
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
	}
	return stm.Addr(len(m.owner) + kind)
}

// check holds the allocator's counters against the oracle: the
// conservation law InUse + FreeWords == the oracle's word count.
func (m *heapModel) check() {
	m.t.Helper()
	free := 0
	for _, o := range m.owner {
		if o == wordFree {
			free++
		}
	}
	inUse := len(m.owner) - free
	if m.a.InUse() != inUse || m.a.FreeWords() != free {
		m.t.Fatalf("inUse/free = %d/%d, oracle %d/%d", m.a.InUse(), m.a.FreeWords(), inUse, free)
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
		m.place(block{Base: base, Size: size})
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

const (
	opAlloc = iota
	opFree
	opGrow
	opAllocBatch
	opAllocBatchFail
	opFreeBatchBad
	opBadFree
	opCount
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
// and checks it against a per-word owner map: blocks never overlap and never
// leave the limit; the counters obey the conservation law after every op; an
// all-or-nothing batch that fails and a bad free (double, interior, free
// word, beyond the limit) mutate nothing; ErrOutOfMemory is only reported
// when no free run of that length exists; every live block keeps its size;
// and freeing everything restores full capacity as one span.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 0, 255, 8})
	f.Add([]byte{10, 20, 30})
	f.Add([]byte{0})
	// Blocks of 9, 71 and 185 words, two freed (bins non-empty), every kind
	// of bad free, batches that fit, that must fail and that free around a
	// bad address, growth, then a large block with bins non-empty.
	f.Add([]byte{
		opAlloc, 8, opAlloc, 8, opAlloc, 8, opAlloc, 70, opAlloc, 8, opAlloc, 230,
		opFree, 1, opFree, 0,
		opAlloc, 8, opAlloc, 3, opFree, 2,
		opBadFree, 0, opBadFree, 1, opBadFree, 2, opBadFree, 3,
		opAllocBatch, 1, 8, 3, opAllocBatch, 2, 8, 70, 8,
		opAllocBatchFail, 8, 8, opAllocBatchFail, 3, 3,
		opFreeBatchBad, 0, 1, 0, opFreeBatchBad, 1, 0, 1,
		opGrow, opAlloc, 230, opFree, 0,
		opAlloc, 255,
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
		m := newHeapModel(t, limit)
		grown, pc := 0, 0
		arg := func() int {
			if pc == len(prog) {
				return 0
			}
			pc++
			return int(prog[pc-1])
		}
		for pc < len(prog) {
			switch arg() % opCount {
			case opAlloc:
				m.alloc(fuzzSize(arg()))
			case opFree:
				if k := arg(); len(m.live) > 0 {
					m.free(k % len(m.live))
				}
			case opGrow:
				if grown < 4 {
					m.a.Grow(64)
					m.owner = append(m.owner, make([]int, 64)...)
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
					m.place(block{Base: base, Size: sizes[i]})
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
				if kind%4 == 3 && len(m.live) > 0 { // a double free
					bad = m.live[0].Base
					m.free(0)
				}
				if err := m.a.Free(bad); !errors.Is(err, ErrBadFree) {
					t.Fatalf("Free(%d) of no block base: %v", bad, err)
				}
			}
			m.check()
		}
		m.checkBlockSizes()
		for len(m.live) > 0 {
			m.free(0)
		}
		m.check()
		if _, err := m.a.Alloc(len(m.owner)); err != nil {
			t.Fatalf("full-capacity alloc after freeing all: %v", err)
		}
	})
}
