package stm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Heap word storage is chunked so that Grow never moves existing words:
// running transactions keep valid pointers into old chunks while new chunks
// are appended. The chunk directory is swapped atomically (copy-on-grow), so
// Load/Store are lock-free.
const (
	chunkShift = 16
	chunkWords = 1 << chunkShift // 64 Ki words = 512 KiB per chunk
	chunkMask  = chunkWords - 1
)

type heapChunk [chunkWords]uint64

// Heap is a growable array of 64-bit words with atomic element access.
// All word reads and writes go through sync/atomic, so concurrent
// uninstrumented access (lock-mode transactions) is data-race free.
type Heap struct {
	dir  atomic.Pointer[[]*heapChunk] // immutable snapshot; replaced on Grow
	mu   sync.Mutex                   // serializes Grow
	size atomic.Int64                 // logical length in words
}

// NewHeap creates a heap of n words, all zero.
func NewHeap(n int) *Heap {
	if n < 0 {
		panic("stm: negative heap size")
	}
	h := &Heap{}
	nchunks := (n + chunkWords - 1) / chunkWords
	dir := make([]*heapChunk, nchunks)
	for i := range dir {
		dir[i] = new(heapChunk)
	}
	h.dir.Store(&dir)
	h.size.Store(int64(n))
	return h
}

// Len returns the heap's logical length in words.
func (h *Heap) Len() int { return int(h.size.Load()) }

// Grow extends the heap by extra words and returns the new length. Existing
// words keep their addresses and values. Grow is safe to call concurrently
// with Load/Store.
func (h *Heap) Grow(extra int) int {
	if extra < 0 {
		panic("stm: negative heap growth")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	newLen := int(h.size.Load()) + extra
	old := *h.dir.Load()
	need := (newLen + chunkWords - 1) / chunkWords
	if need > len(old) {
		dir := make([]*heapChunk, need)
		copy(dir, old)
		for i := len(old); i < need; i++ {
			dir[i] = new(heapChunk)
		}
		h.dir.Store(&dir)
	}
	h.size.Store(int64(newLen))
	return newLen
}

func (h *Heap) word(a Addr) *uint64 {
	dir := *h.dir.Load()
	ci := int(a) >> chunkShift
	if int64(a) >= h.size.Load() || ci >= len(dir) {
		panic(&BoundsError{Addr: a, Len: h.Len()})
	}
	return &dir[ci][int(a)&chunkMask]
}

// Load atomically reads the word at a.
func (h *Heap) Load(a Addr) uint64 { return atomic.LoadUint64(h.word(a)) }

// Store atomically writes v to the word at a.
func (h *Heap) Store(a Addr, v uint64) { atomic.StoreUint64(h.word(a), v) }

// run returns the n words from a as one slice of a chunk, or nil when the run
// is empty or crosses a chunk edge. A run past the heap's end panics with
// BoundsError before any word moves. size is read before the directory, which
// Grow publishes first, so the directory covers it.
func (h *Heap) run(a Addr, n int) []uint64 {
	size := h.size.Load()
	if int64(a)+int64(n) > size {
		panic(&BoundsError{Addr: Addr(max(int64(a), size)), Len: int(size)})
	}
	if off := int(a) & chunkMask; n > 0 && off+n <= chunkWords {
		return (*h.dir.Load())[int(a)>>chunkShift][off : off+n]
	}
	return nil
}

// AppendWords appends the n words from a to dst, 8 little-endian bytes each,
// for one bounds check and one directory lookup; each word is still read
// atomically, and a run across a chunk edge is read word by word.
func (h *Heap) AppendWords(dst []byte, a Addr, n int) []byte {
	ws := h.run(a, n)
	for i := 0; i < n; i++ {
		if ws == nil {
			dst = binary.LittleEndian.AppendUint64(dst, h.Load(a+Addr(i)))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&ws[i]))
		}
	}
	return dst
}

// StoreWords writes src, len(src)/8 little-endian words, from a on: the
// inverse of AppendWords, at the same cost.
func (h *Heap) StoreWords(a Addr, src []byte) {
	ws := h.run(a, len(src)/8)
	for i := 0; i < len(src)/8; i++ {
		if v := binary.LittleEndian.Uint64(src[8*i:]); ws == nil {
			h.Store(a+Addr(i), v)
		} else {
			atomic.StoreUint64(&ws[i], v)
		}
	}
}

// CompareAndSwap atomically CASes the word at a.
func (h *Heap) CompareAndSwap(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(h.word(a), old, new)
}

// InBounds reports whether a is a valid heap address.
func (h *Heap) InBounds(a Addr) bool { return int64(a) < h.size.Load() }

// Snapshot copies the first n words into a fresh slice (diagnostics/tests).
func (h *Heap) Snapshot(n int) []uint64 {
	if n > h.Len() {
		n = h.Len()
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = h.Load(Addr(i))
	}
	return out
}

func (h *Heap) String() string {
	return fmt.Sprintf("Heap(%d words, %d chunks)", h.Len(), len(*h.dir.Load()))
}
