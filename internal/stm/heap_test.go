package stm

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
)

func TestHeapBasic(t *testing.T) {
	h := NewHeap(100)
	if h.Len() != 100 {
		t.Fatalf("Len = %d, want 100", h.Len())
	}
	h.Store(0, 1)
	h.Store(99, 2)
	if h.Load(0) != 1 || h.Load(99) != 2 {
		t.Error("load/store mismatch")
	}
	for i := 1; i < 99; i++ {
		if h.Load(Addr(i)) != 0 {
			t.Fatalf("word %d not zero-initialized", i)
		}
	}
}

func TestHeapZeroSize(t *testing.T) {
	h := NewHeap(0)
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
	if h.InBounds(0) {
		t.Error("InBounds(0) true on empty heap")
	}
	h.Grow(10)
	h.Store(9, 7)
	if h.Load(9) != 7 {
		t.Error("grow from empty failed")
	}
}

func TestHeapGrowPreservesContents(t *testing.T) {
	h := NewHeap(10)
	for i := 0; i < 10; i++ {
		h.Store(Addr(i), uint64(i)+100)
	}
	n := h.Grow(chunkWords * 2) // force new chunks
	if n != 10+chunkWords*2 {
		t.Fatalf("Grow returned %d", n)
	}
	for i := 0; i < 10; i++ {
		if h.Load(Addr(i)) != uint64(i)+100 {
			t.Fatalf("word %d lost after grow", i)
		}
	}
	h.Store(Addr(n-1), 55)
	if h.Load(Addr(n-1)) != 55 {
		t.Error("tail word after grow broken")
	}
}

func TestHeapCrossChunkAddressing(t *testing.T) {
	h := NewHeap(chunkWords + 10)
	h.Store(chunkWords-1, 1)
	h.Store(chunkWords, 2)
	h.Store(chunkWords+9, 3)
	if h.Load(chunkWords-1) != 1 || h.Load(chunkWords) != 2 || h.Load(chunkWords+9) != 3 {
		t.Error("cross-chunk addressing broken")
	}
}

func TestHeapOutOfBoundsPanics(t *testing.T) {
	h := NewHeap(4)
	defer func() {
		if _, ok := recover().(*BoundsError); !ok {
			t.Error("expected *BoundsError")
		}
	}()
	h.Load(4)
}

// TestHeapWordRuns holds AppendWords and StoreWords to per-word Load and
// Store: inside one chunk, and across the chunk edge, where the run falls
// back to word-by-word access.
func TestHeapWordRuns(t *testing.T) {
	h := NewHeap(chunkWords + 64)
	for _, base := range []Addr{0, 5, chunkWords - 64, chunkWords - 3, chunkWords - 2, chunkWords} {
		for _, n := range []int{0, 1, 3, 64} {
			src := make([]byte, 8*n)
			for i := range src {
				src[i] = byte(int(base) + 7*i + n)
			}
			h.StoreWords(base, src)
			for i := 0; i < n; i++ {
				if got, want := h.Load(base+Addr(i)), binary.LittleEndian.Uint64(src[8*i:]); got != want {
					t.Fatalf("base %d n %d: word %d = %#x after StoreWords, want %#x", base, n, i, got, want)
				}
			}
			prefix := []byte("head")
			if got := h.AppendWords(prefix, base, n); !bytes.Equal(got, append(prefix, src...)) {
				t.Fatalf("base %d n %d: AppendWords = %x, want %x", base, n, got[len(prefix):], src)
			}
		}
	}
}

// TestHeapWordRunPastEndPanics: a run that starts inside the heap and ends
// past it panics with *BoundsError naming the first word past the end, and
// no word of it moved.
func TestHeapWordRunPastEndPanics(t *testing.T) {
	h := NewHeap(16)
	for a := Addr(13); a < 16; a++ {
		h.Store(a, 0xAB)
	}
	for name, fn := range map[string]func(){
		"StoreWords":  func() { h.StoreWords(13, make([]byte, 8*4)) },
		"AppendWords": func() { h.AppendWords(nil, 13, 4) },
	} {
		func() {
			defer func() {
				if be, ok := recover().(*BoundsError); !ok || be.Addr != 16 || be.Len != 16 {
					t.Errorf("%s past the end: recovered %v, want *BoundsError at 16", name, be)
				}
			}()
			fn()
		}()
	}
	for a := Addr(13); a < 16; a++ {
		if got := h.Load(a); got != 0xAB {
			t.Fatalf("word %d = %#x after a refused run, want it untouched", a, got)
		}
	}
}

func TestHeapBoundsErrorMessage(t *testing.T) {
	e := &BoundsError{Addr: 9, Len: 4}
	if e.Error() == "" {
		t.Error("empty error message")
	}
}

func TestHeapCompareAndSwap(t *testing.T) {
	h := NewHeap(4)
	if !h.CompareAndSwap(1, 0, 5) {
		t.Fatal("CAS 0->5 failed")
	}
	if h.CompareAndSwap(1, 0, 6) {
		t.Fatal("CAS with wrong old succeeded")
	}
	if h.Load(1) != 5 {
		t.Fatal("value wrong after CAS")
	}
}

func TestHeapConcurrentGrowAndAccess(t *testing.T) {
	// Grow must never invalidate concurrent Load/Store on existing words.
	h := NewHeap(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			a := Addr(id * 16)
			var i uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				h.Store(a, i)
				if got := h.Load(a); got != i {
					t.Errorf("goroutine %d: read %d want %d", id, got, i)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		h.Grow(1000)
	}
	close(stop)
	wg.Wait()
	if h.Len() != 64+50*1000 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHeapSnapshot(t *testing.T) {
	h := NewHeap(8)
	h.Store(2, 9)
	s := h.Snapshot(4)
	if len(s) != 4 || s[2] != 9 {
		t.Errorf("snapshot = %v", s)
	}
	if got := h.Snapshot(100); len(got) != 8 {
		t.Errorf("oversized snapshot len = %d", len(got))
	}
}

func TestHeapStringer(t *testing.T) {
	h := NewHeap(8)
	if h.String() == "" {
		t.Error("empty String()")
	}
}

func TestHeapNegativePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"NewHeap": func() { NewHeap(-1) },
		"Grow":    func() { NewHeap(1).Grow(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-1) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHeapQuickLoadStoreRoundTrip(t *testing.T) {
	h := NewHeap(1 << 12)
	prop := func(a uint16, v uint64) bool {
		addr := Addr(a) % Addr(h.Len())
		h.Store(addr, v)
		return h.Load(addr) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestConflictSentinel(t *testing.T) {
	if stmCatchCompleted() {
		t.Error("Catch did not report conflict")
	}
	// Non-conflict panics must pass through Catch.
	defer func() {
		if recover() == nil {
			t.Error("foreign panic swallowed by Catch")
		}
	}()
	Catch(func() { panic("boom") })
}

func stmCatchCompleted() bool {
	return Catch(func() { Throw("test") })
}

func TestIsConflict(t *testing.T) {
	var got any
	func() {
		defer func() { got = recover() }()
		Throw("x")
	}()
	if _, ok := got.(conflictSignal); !ok {
		t.Errorf("Throw panicked with %v, not the conflict sentinel", got)
	}
	if s, ok := got.(interface{ String() string }); !ok || s.String() == "" {
		t.Error("sentinel stringer missing")
	}
}
