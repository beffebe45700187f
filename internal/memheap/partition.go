package memheap

import (
	"errors"
	"fmt"
	"sort"

	"votm/internal/stm"
)

// Partitioning support for live view repartitioning (internal/viewmgr).
//
// A split moves whole word ranges from a parent view to a child view. On the
// allocator side that is Evict (withdraw the ranges — and every allocated
// block fully inside them — from the parent), Restrict (shape a fresh child
// allocator so only the moved ranges are allocatable), and Adopt (re-register
// the evicted blocks in the child). A merge is the inverse: Evict on the
// child, Release on the parent, Adopt on the parent.
//
// Every operation first merges the bins into the span list, so that the list
// and the size table together account for every word; all of them then
// validate fully before mutating, so a failed call leaves the allocator's
// blocks, free words and counters unchanged.

// ErrStraddle is returned when a range boundary cuts through an allocated
// block; blocks are moved whole or not at all.
var ErrStraddle = errors.New("memheap: allocated block straddles range boundary")

// ErrNotOwned is returned when an operation names words the allocator does
// not currently own (outside its limit, already evicted, or — for Release —
// still present).
var ErrNotOwned = errors.New("memheap: range not owned by allocator")

// Range is a half-open word range [Lo, Hi).
type Range struct{ Lo, Hi int }

// Block describes one allocated block (for Evict/Adopt hand-off).
type Block struct {
	Base stm.Addr
	Size int
}

// normalizeRanges sorts a copy of rs and rejects empty, inverted, or
// overlapping ranges. Adjacent ranges are merged.
func normalizeRanges(rs []Range) ([]Range, error) {
	if len(rs) == 0 {
		return nil, errors.New("memheap: no ranges")
	}
	for _, r := range rs {
		if r.Lo < 0 || r.Lo >= r.Hi {
			return nil, fmt.Errorf("memheap: invalid range [%d,%d)", r.Lo, r.Hi)
		}
	}
	out := make([]Range, len(rs))
	copy(out, rs)
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.Lo < last.Hi {
			return nil, fmt.Errorf("memheap: overlapping ranges [%d,%d) and [%d,%d)", last.Lo, last.Hi, r.Lo, r.Hi)
		}
		if r.Lo == last.Hi {
			last.Hi = r.Hi
			continue
		}
		merged = append(merged, r)
	}
	return merged, nil
}

// freeWordsInLocked counts free words inside [lo, hi).
func (a *Allocator) freeWordsInLocked(lo, hi int) int {
	n := 0
	for _, s := range a.free {
		l, h := max(s.base, lo), min(s.base+s.size, hi)
		if l < h {
			n += h - l
		}
	}
	return n
}

// overlapLocked returns the first allocated block with a word in [lo, hi):
// one based below lo that reaches past it, else the first based inside. The
// size table marks only block bases, so finding the former walks down from lo
// to the nearest base: for validating rare operations.
func (a *Allocator) overlapLocked(lo, hi int) (base, size int, ok bool) {
	for base = lo - 1; base >= 0 && size == 0; base-- {
		if size = int(a.sizes[base]); base+size > lo {
			return base, size, true
		}
	}
	for base = lo; base < hi; base++ {
		if size = int(a.sizes[base]); size != 0 {
			return base, size, true
		}
	}
	return 0, 0, false
}

// carveFreeLocked removes [lo, hi) from the free list. Every word of the
// range must be free (checked by the caller).
func (a *Allocator) carveFreeLocked(lo, hi int) {
	out := a.free[:0]
	var add []span
	for _, s := range a.free {
		sl, sh := s.base, s.base+s.size
		l, h := max(sl, lo), min(sh, hi)
		if l >= h { // untouched
			out = append(out, s)
			continue
		}
		if sl < l {
			out = append(out, span{base: sl, size: l - sl})
		}
		if h < sh {
			add = append(add, span{base: h, size: sh - h})
		}
	}
	a.free = append(out, add...)
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].base < a.free[j].base })
}

// Evict atomically withdraws the given ranges from the allocator: free words
// inside them stop being allocatable and allocated blocks fully inside them
// are de-registered and returned (sorted by base) so another allocator can
// Adopt them. It fails — without mutating anything — if a block straddles a
// range boundary (ErrStraddle) or if any word of a range is neither free nor
// allocated here, e.g. already evicted (ErrNotOwned).
func (a *Allocator) Evict(ranges []Range) ([]Block, error) {
	rs, err := normalizeRanges(ranges)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if rs[len(rs)-1].Hi > a.limit {
		return nil, fmt.Errorf("%w: [%d,%d) beyond limit %d", ErrNotOwned, rs[len(rs)-1].Lo, rs[len(rs)-1].Hi, a.limit)
	}
	a.mergeBinsLocked()
	// Validate: every word of a range is free or in a block that lies wholly
	// inside the range.
	var blocks []Block
	for _, r := range rs {
		covered := a.freeWordsInLocked(r.Lo, r.Hi)
		for i := r.Lo; i < r.Hi; {
			size := int(a.sizes[i])
			if size == 0 {
				i++
				continue
			}
			if i+size > r.Hi {
				return nil, fmt.Errorf("%w: block [%d,%d) vs range [%d,%d)", ErrStraddle, i, i+size, r.Lo, r.Hi)
			}
			blocks = append(blocks, Block{Base: stm.Addr(i), Size: size})
			covered += size
			i += size
		}
		if covered == r.Hi-r.Lo {
			continue
		}
		if base, size, ok := a.overlapLocked(r.Lo, r.Hi); ok && base < r.Lo {
			return nil, fmt.Errorf("%w: block [%d,%d) vs range [%d,%d)", ErrStraddle, base, base+size, r.Lo, r.Hi)
		}
		return nil, fmt.Errorf("%w: [%d,%d) has %d of %d words present", ErrNotOwned, r.Lo, r.Hi, covered, r.Hi-r.Lo)
	}
	// Apply.
	for _, r := range rs {
		a.carveFreeLocked(r.Lo, r.Hi)
	}
	for _, b := range blocks {
		a.sizes[b.Base] = 0
		a.inUse -= b.Size
	}
	return blocks, nil
}

// Release atomically returns previously evicted ranges to the free list.
// Every word must currently be absent (not free, not allocated) or the call
// fails without mutating anything.
func (a *Allocator) Release(ranges []Range) error {
	rs, err := normalizeRanges(ranges)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if rs[len(rs)-1].Hi > a.limit {
		return fmt.Errorf("%w: [%d,%d) beyond limit %d", ErrNotOwned, rs[len(rs)-1].Lo, rs[len(rs)-1].Hi, a.limit)
	}
	a.mergeBinsLocked()
	for _, r := range rs {
		if a.freeWordsInLocked(r.Lo, r.Hi) != 0 {
			return fmt.Errorf("memheap: release of [%d,%d) overlaps free space", r.Lo, r.Hi)
		}
		if base, _, ok := a.overlapLocked(r.Lo, r.Hi); ok {
			return fmt.Errorf("memheap: release of [%d,%d) overlaps allocated block at %d", r.Lo, r.Hi, base)
		}
	}
	for _, r := range rs {
		a.insertFreeLocked(span{base: r.Lo, size: r.Hi - r.Lo})
	}
	return nil
}

// Restrict shapes a fresh allocator (no live allocations) so that exactly the
// given ranges are allocatable; every word outside them is withdrawn. Used to
// build a split child's allocator over an identity-mapped heap.
func (a *Allocator) Restrict(keep []Range) error {
	rs, err := normalizeRanges(keep)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inUse != 0 {
		return errors.New("memheap: Restrict on allocator with live allocations")
	}
	a.mergeBinsLocked()
	if rs[len(rs)-1].Hi > a.limit {
		return fmt.Errorf("%w: [%d,%d) beyond limit %d", ErrNotOwned, rs[len(rs)-1].Lo, rs[len(rs)-1].Hi, a.limit)
	}
	for _, r := range rs {
		if a.freeWordsInLocked(r.Lo, r.Hi) != r.Hi-r.Lo {
			return fmt.Errorf("%w: [%d,%d) not fully free", ErrNotOwned, r.Lo, r.Hi)
		}
	}
	free := make([]span, 0, len(rs))
	for _, r := range rs {
		free = append(free, span{base: r.Lo, size: r.Hi - r.Lo})
	}
	a.free = free
	return nil
}

// Adopt registers a block (handed off by another allocator's Evict) as
// allocated here, carving it out of free space. The whole block must be free.
func (a *Allocator) Adopt(base stm.Addr, size int) error {
	if size <= 0 {
		return fmt.Errorf("memheap: invalid adopt size %d", size)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	lo, hi := int(base), int(base)+size
	if hi > a.limit {
		return fmt.Errorf("%w: adopt [%d,%d) beyond limit %d", ErrNotOwned, lo, hi, a.limit)
	}
	a.mergeBinsLocked()
	if a.freeWordsInLocked(lo, hi) != hi-lo {
		return fmt.Errorf("%w: adopt [%d,%d) not fully free", ErrNotOwned, lo, hi)
	}
	a.carveFreeLocked(lo, hi)
	a.sizes[base] = uint32(size)
	a.inUse += size
	return nil
}
