// Package memheap provides the block allocator behind the VOTM primitives
// malloc_block / free_block / brk_view. Allocation bookkeeping lives outside
// the transactional word heap (in ordinary Go memory), so allocator metadata
// can never conflict with transactional data — matching the paper's API, in
// which allocation is not transactional.
//
// The bookkeeping is three structures. A size table, one uint32 per heap
// word, holds the size of the block based at that word and 0 everywhere
// else: Free, BlockSize and the ErrBadFree check are one indexed load (4
// bytes per heap word, whatever the number of live blocks). Exact-size bins:
// a freed block of at most binLimit words is pushed on the LIFO of its size
// and the next allocation of that size pops it. A base-sorted, coalescing
// span list is the one slow path: it serves bin misses first-fit and holds
// the blocks above the bin limit and the wilderness Grow adds. A block
// sitting in a bin is not coalesced with its neighbours, so the bins are
// merged back into the span list (sorted once, coalesced) before
// ErrOutOfMemory is reported: binned space is reused by size or by address,
// never stranded.
package memheap

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"votm/internal/stm"
)

// ErrOutOfMemory is returned when no free span can satisfy an allocation.
var ErrOutOfMemory = errors.New("memheap: out of view memory (consider Brk)")

// ErrBadFree is returned when freeing an address that is not an allocated
// block base.
var ErrBadFree = errors.New("memheap: free of unallocated address")

// binLimit is the largest block, in words, that is reused by exact size:
// every index node and every value of up to 504 bytes.
const binLimit = 64

type span struct {
	base, size int
}

// Allocator hands out word spans from [0, limit): a freed small block is
// reused by the next allocation of its size, everything else is placed first
// fit in a coalescing free list. It is safe for concurrent use.
type Allocator struct {
	mu     sync.Mutex
	limit  int
	free   []span                   // sorted by base, no two adjacent
	bins   [binLimit + 1][]stm.Addr // bins[n]: bases of free n-word blocks
	binned int                      // words held in bins
	sizes  []uint32                 // per heap word: size of the block based there, else 0
	inUse  int
}

// New creates an allocator over a heap of limit words.
func New(limit int) *Allocator {
	if limit < 0 {
		panic("memheap: negative limit")
	}
	a := &Allocator{
		sizes: make([]uint32, limit),
		limit: limit,
	}
	if limit > 0 {
		a.free = []span{{base: 0, size: limit}}
	}
	return a
}

// Alloc reserves a block of words words and returns its base address.
func (a *Allocator) Alloc(words int) (stm.Addr, error) {
	if words <= 0 {
		return 0, fmt.Errorf("memheap: invalid allocation size %d", words)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocLocked(words)
}

func (a *Allocator) allocLocked(words int) (stm.Addr, error) {
	base, ok := 0, false
	if words <= binLimit && len(a.bins[words]) > 0 {
		bin := a.bins[words]
		base, ok = int(bin[len(bin)-1]), true
		a.bins[words] = bin[:len(bin)-1]
		a.binned -= words
	} else if base, ok = a.firstFitLocked(words); !ok && a.binned > 0 {
		a.mergeBinsLocked()
		base, ok = a.firstFitLocked(words)
	}
	if !ok {
		return 0, ErrOutOfMemory
	}
	a.sizes[base] = uint32(words)
	a.inUse += words
	return stm.Addr(base), nil
}

func (a *Allocator) firstFitLocked(words int) (int, bool) {
	for i := range a.free {
		if a.free[i].size >= words {
			base := a.free[i].base
			a.free[i].base += words
			a.free[i].size -= words
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return base, true
		}
	}
	return 0, false
}

// mergeBinsLocked empties the bins into the span list, which then holds all
// free space again, coalesced.
func (a *Allocator) mergeBinsLocked() {
	if a.binned == 0 {
		return
	}
	for size := range a.bins {
		for _, base := range a.bins[size] {
			a.free = append(a.free, span{base: int(base), size: size})
		}
		a.bins[size] = a.bins[size][:0]
	}
	a.binned = 0
	slices.SortFunc(a.free, func(x, y span) int { return x.base - y.base })
	merged := a.free[:1]
	for _, s := range a.free[1:] {
		if last := &merged[len(merged)-1]; last.base+last.size == s.base {
			last.size += s.size
		} else {
			merged = append(merged, s)
		}
	}
	a.free = merged
}

// AllocBatch allocates one block per entry of sizes under a single lock
// acquisition, appending the addresses to dst. It is all-or-nothing: if any
// allocation fails, the blocks already carved out are freed again and dst is
// returned unextended. The group-commit execution path uses this to
// pre-allocate a whole group's blocks with one mutex round-trip instead of
// one per block.
func (a *Allocator) AllocBatch(sizes []int, dst []stm.Addr) ([]stm.Addr, error) {
	for _, words := range sizes {
		if words <= 0 {
			return dst, fmt.Errorf("memheap: invalid allocation size %d", words)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	start := len(dst)
	for _, words := range sizes {
		ad, err := a.allocLocked(words)
		if err != nil {
			for _, done := range dst[start:] {
				a.freeLocked(done)
			}
			return dst[:start], err
		}
		dst = append(dst, ad)
	}
	return dst, nil
}

// Free releases the block whose base address is addr.
func (a *Allocator) Free(addr stm.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.freeLocked(addr) {
		return fmt.Errorf("%w: %d", ErrBadFree, addr)
	}
	return nil
}

// FreeBatch releases every block in addrs under a single lock acquisition —
// the group-commit path retires a whole group's displaced storage at once
// instead of paying a mutex round-trip per block. All valid addresses are
// freed even when some are bad; the first bad address is reported.
func (a *Allocator) FreeBatch(addrs []stm.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var firstErr error
	for _, ad := range addrs {
		if !a.freeLocked(ad) && firstErr == nil {
			firstErr = fmt.Errorf("%w: %d", ErrBadFree, ad)
		}
	}
	return firstErr
}

// freeLocked releases the block based at addr — to the bin of its size, or
// to the span list above the bin limit — and reports whether there was one.
func (a *Allocator) freeLocked(addr stm.Addr) bool {
	if int(addr) >= len(a.sizes) || a.sizes[addr] == 0 {
		return false
	}
	size := int(a.sizes[addr])
	a.sizes[addr] = 0
	a.inUse -= size
	if size <= binLimit {
		a.bins[size] = append(a.bins[size], addr)
		a.binned += size
	} else {
		a.insertFreeLocked(span{base: int(addr), size: size})
	}
	return true
}

func (a *Allocator) insertFreeLocked(s span) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base > s.base })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].base+a.free[i].size == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+a.free[i-1].size == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Grow extends the allocatable range by extra words (the brk_view path).
func (a *Allocator) Grow(extra int) {
	if extra <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.insertFreeLocked(span{base: a.limit, size: extra})
	a.limit += extra
	a.sizes = slices.Grow(a.sizes, extra)[:a.limit]
	clear(a.sizes[a.limit-extra:])
}

// InUse returns the number of currently allocated words.
func (a *Allocator) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// FreeWords returns the number of allocatable words that are not allocated.
func (a *Allocator) FreeWords() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.binned
	for _, s := range a.free {
		n += s.size
	}
	return n
}

// BlockSize returns the size of the allocated block at addr, or 0 if addr is
// not an allocated block base.
func (a *Allocator) BlockSize(addr stm.Addr) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(addr) >= len(a.sizes) {
		return 0
	}
	return int(a.sizes[addr])
}
