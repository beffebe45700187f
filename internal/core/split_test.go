package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"votm/internal/core"
	"votm/internal/stm"
)

func mustWrite(t *testing.T, v *core.View, th *core.Thread, addr stm.Addr, val uint64) {
	t.Helper()
	err := v.Atomic(context.Background(), th, func(tx core.Tx) error {
		tx.Store(addr, val)
		return nil
	})
	if err != nil {
		t.Fatalf("write %d=%d on view %d: %v", addr, val, v.ID(), err)
	}
}

func readWord(v *core.View, th *core.Thread, addr stm.Addr) (uint64, error) {
	var got uint64
	err := v.Atomic(context.Background(), th, func(tx core.Tx) error {
		got = tx.Load(addr)
		return nil
	})
	return got, err
}

func TestSplitMovesWordsAndForwards(t *testing.T) {
	for _, kind := range engines {
		t.Run(string(kind), func(t *testing.T) {
			rt := newRT(t, kind, 4)
			v, err := rt.CreateView(1, 256, 0)
			if err != nil {
				t.Fatal(err)
			}
			th := rt.RegisterThread()
			mustWrite(t, v, th, 10, 111)
			mustWrite(t, v, th, 200, 222)

			child, err := v.Split(context.Background(), 2, []core.AddrRange{{Lo: 128, Hi: 256}}, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if child.ID() != 2 || child.Size() != 256 {
				t.Fatalf("child id=%d size=%d", child.ID(), child.Size())
			}

			// The moved word kept its address and value in the child.
			if got, err := readWord(child, th, 200); err != nil || got != 222 {
				t.Errorf("child read 200 = %d, %v", got, err)
			}
			// The kept word still reads through the parent.
			if got, err := readWord(v, th, 10); err != nil || got != 111 {
				t.Errorf("parent read 10 = %d, %v", got, err)
			}
			// A stale access through the parent gets the typed error.
			_, err = readWord(v, th, 200)
			var me *core.MovedError
			if !errors.As(err, &me) {
				t.Fatalf("parent read 200: %v (want *MovedError)", err)
			}
			if me.View != 1 || me.NewView != 2 || me.Addr != 200 || me.Epoch != 1 {
				t.Errorf("MovedError = %+v", me)
			}
			// Locate resolves the forwarding chain.
			if vid, err := rt.Locate(1, 200); err != nil || vid != 2 {
				t.Errorf("Locate(1, 200) = %d, %v", vid, err)
			}
			if vid, err := rt.Locate(1, 10); err != nil || vid != 1 {
				t.Errorf("Locate(1, 10) = %d, %v", vid, err)
			}
			// Stores through a stale handle are blocked too, and the failed
			// transaction left no trace.
			err = v.Atomic(context.Background(), th, func(tx core.Tx) error {
				tx.Store(10, 999) // owned — would commit if the tx survived
				tx.Store(200, 333)
				return nil
			})
			if !errors.As(err, &me) {
				t.Fatalf("stale store: %v", err)
			}
			if got, _ := readWord(v, th, 10); got != 111 {
				t.Errorf("aborted stale tx leaked a write: word 10 = %d", got)
			}
		})
	}
}

// TestSplitChildGuardsWordsItWasNeverGiven pins the child's side of the
// forwarding guard: a word of the parent's heap outside the child's ranges
// answers *MovedError naming the parent (a handle Locate returned for one
// address, reused for another, must not commit into the child's private copy),
// and the up-link is not a split family: the child cannot merge its parent.
func TestSplitChildGuardsWordsItWasNeverGiven(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	mustWrite(t, v, th, 10, 111)
	child, err := v.Split(context.Background(), 2, []core.AddrRange{{Lo: 64, Hi: 128}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []stm.Addr{10, 200} {
		err := child.Atomic(context.Background(), th, func(tx core.Tx) error {
			tx.Store(a, tx.Load(a)+1)
			return nil
		})
		var me *core.MovedError
		if !errors.As(err, &me) || me.View != 2 || me.NewView != 1 || me.Addr != a {
			t.Fatalf("child access to word %d it was never given: %v (want *MovedError to view 1)", a, err)
		}
		if vid, err := rt.Locate(2, a); err != nil || vid != 1 {
			t.Errorf("Locate(2, %d) = %d, %v", a, vid, err)
		}
	}
	if got, err := readWord(v, th, 10); err != nil || got != 111 {
		t.Errorf("parent word 10 = %d, %v after a refused child access", got, err)
	}
	mustWrite(t, child, th, 100, 7) // its own words still serve
	if err := rt.MergeViews(context.Background(), 2, 1); !errors.Is(err, core.ErrNotSplitFamily) {
		t.Fatalf("MergeViews(child, parent) = %v, want ErrNotSplitFamily", err)
	}
	if err := rt.MergeViews(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if got, err := readWord(v, th, 100); err != nil || got != 7 {
		t.Errorf("parent word 100 after merge = %d, %v", got, err)
	}
}

func TestSplitGuardInLockMode(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 128, 1) // Q = 1: every run is lock mode
	if err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	if _, err := v.Split(context.Background(), 2, []core.AddrRange{{Lo: 64, Hi: 128}}, "", 1); err != nil {
		t.Fatal(err)
	}
	_, err = readWord(v, th, 100)
	var me *core.MovedError
	if !errors.As(err, &me) || me.NewView != 2 {
		t.Fatalf("lock-mode stale read: %v", err)
	}
}

func TestSplitAllocatorOwnership(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One block on each side of the boundary.
	keep, err := v.Alloc(64) // [0,64)
	if err != nil || keep != 0 {
		t.Fatalf("keep = %d, %v", keep, err)
	}
	moved, err := v.Alloc(64) // [64,128)
	if err != nil || moved != 64 {
		t.Fatalf("moved = %d, %v", moved, err)
	}
	child, err := v.Split(context.Background(), 2, []core.AddrRange{{Lo: 64, Hi: 256}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The moved block now frees through the child, not the parent.
	if err := v.Free(moved); err == nil {
		t.Error("parent freed a moved block")
	}
	if err := child.Free(moved); err != nil {
		t.Errorf("child free of moved block: %v", err)
	}
	// Parent allocations cannot land in the moved range anymore.
	for i := 0; i < 4; i++ {
		if a, err := v.Alloc(16); err == nil && a >= 64 {
			t.Fatalf("parent allocated %d inside moved range", a)
		}
	}
	// Child allocations land inside the moved range.
	if a, err := child.Alloc(16); err != nil || a < 64 {
		t.Errorf("child Alloc = %d, %v", a, err)
	}
}

func TestSplitRejectsStraddlingBlock(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Alloc(96); err != nil { // [0,96) straddles 64
		t.Fatal(err)
	}
	if _, err := v.Split(context.Background(), 2, []core.AddrRange{{Lo: 64, Hi: 128}}, "", 0); err == nil {
		t.Fatal("split through an allocated block succeeded")
	}
	if _, err := rt.View(2); err == nil {
		t.Error("failed split left the child view behind")
	}
	// The parent still works.
	th := rt.RegisterThread()
	mustWrite(t, v, th, 10, 1)
}

func TestSplitRejectsBadRanges(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, rs := range [][]core.AddrRange{
		nil,
		{{Lo: 8, Hi: 8}},
		{{Lo: 64, Hi: 256}},
		{{Lo: 0, Hi: 32}, {Lo: 16, Hi: 48}},
	} {
		if _, err := v.Split(ctx, 2, rs, "", 0); !errors.Is(err, core.ErrBadRange) {
			t.Errorf("Split(%v) = %v, want ErrBadRange", rs, err)
		}
	}
	// Double-moving a range fails on the second split.
	if _, err := v.Split(ctx, 2, []core.AddrRange{{Lo: 64, Hi: 128}}, "", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Split(ctx, 3, []core.AddrRange{{Lo: 96, Hi: 128}}, "", 0); !errors.Is(err, core.ErrBadRange) {
		t.Errorf("re-split of moved range: %v", err)
	}
}

func TestMergeViewsRestoresParent(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	mustWrite(t, v, th, 200, 1)
	child, err := v.Split(context.Background(), 2, []core.AddrRange{{Lo: 128, Hi: 256}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the moved word while the child owns it.
	mustWrite(t, child, th, 200, 2)

	if err := rt.MergeViews(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	// The parent serves the child's latest committed value again.
	if got, err := readWord(v, th, 200); err != nil || got != 2 {
		t.Errorf("parent read after merge = %d, %v", got, err)
	}
	// The retired child forwards everything back.
	_, err = readWord(child, th, 200)
	var me *core.MovedError
	if !errors.As(err, &me) || me.NewView != 1 {
		t.Fatalf("retired child read: %v", err)
	}
	if vid, err := rt.Locate(2, 200); err != nil || vid != 1 {
		t.Errorf("Locate(2, 200) = %d, %v", vid, err)
	}
	// The parent's allocator owns the range again.
	if a, err := v.Alloc(128); err != nil || a != 0 {
		// First-fit: [0,128) was never allocated in this test.
		t.Errorf("parent Alloc(128) = %d, %v", a, err)
	}
	if a, err := v.Alloc(128); err != nil || a != 128 {
		t.Errorf("parent Alloc(128) #2 = %d, %v", a, err)
	}
	// Merging again is not a split family anymore.
	if err := rt.MergeViews(context.Background(), 1, 2); !errors.Is(err, core.ErrNotSplitFamily) {
		t.Errorf("double merge: %v", err)
	}
}

func TestMergeCollapsesGrandchildForwarding(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	mustWrite(t, v, th, 140, 14)
	mustWrite(t, v, th, 240, 24)
	child, err := v.Split(context.Background(), 2, []core.AddrRange{{Lo: 128, Hi: 256}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Child splits further: [192,256) to a grandchild.
	grand, err := child.Split(context.Background(), 3, []core.AddrRange{{Lo: 192, Hi: 256}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Merge the child back into the parent: the grandchild's range must be
	// re-pointed, not copied back.
	if err := rt.MergeViews(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if got, err := readWord(v, th, 140); err != nil || got != 14 {
		t.Errorf("parent read 140 = %d, %v", got, err)
	}
	if vid, err := rt.Locate(1, 240); err != nil || vid != 3 {
		t.Errorf("Locate(1, 240) = %d, %v", vid, err)
	}
	if got, err := readWord(grand, th, 240); err != nil || got != 24 {
		t.Errorf("grandchild read 240 = %d, %v", got, err)
	}
}

func TestExclusiveQuiescesView(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Exclusive(context.Background(), func(tx core.Tx) error {
		tx.Store(5, 55)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	if got, err := readWord(v, th, 5); err != nil || got != 55 {
		t.Errorf("read after Exclusive = %d, %v", got, err)
	}
	// A panicking body must release the quiescence.
	func() {
		defer func() { recover() }()
		v.Exclusive(context.Background(), func(core.Tx) error { panic("boom") })
	}()
	mustWrite(t, v, th, 6, 66) // would hang if the pause leaked
}

// TestSplitUnderLoad runs workers incrementing per-address counters while
// the view is repeatedly split and merged; every worker retries on
// *MovedError via Locate. The final counter values must equal the number of
// successful increments each worker recorded — transactions must never be
// lost or doubled across a repartition.
func TestSplitUnderLoad(t *testing.T) {
	const (
		workers = 4
		rounds  = 20
		words   = 64
	)
	rt := newRT(t, core.NOrec, workers)
	if _, err := rt.CreateView(1, words, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	tallies := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		tallies[w] = make([]uint64, words)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			cur, _ := rt.View(1)
			rng := uint64(w)*2654435761 + 1
			for ctx.Err() == nil {
				rng = rng*6364136223846793005 + 1442695040888963407
				addr := stm.Addr(rng % words)
				err := cur.Atomic(ctx, th, func(tx core.Tx) error {
					tx.Store(addr, tx.Load(addr)+1)
					return nil
				})
				switch {
				case err == nil:
					tallies[w][addr]++
				case errors.As(err, new(*core.MovedError)):
					if vid, lerr := rt.Locate(cur.ID(), addr); lerr == nil {
						if nv, verr := rt.View(vid); verr == nil {
							cur = nv
						}
					}
				case errors.Is(err, context.Canceled):
					return
				default:
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < rounds; r++ {
		parent, err := rt.View(1)
		if err != nil {
			t.Fatal(err)
		}
		childID := 100 + r
		if _, err := parent.Split(ctx, childID, []core.AddrRange{{Lo: words / 2, Hi: words}}, "", 0); err != nil {
			t.Fatalf("round %d split: %v", r, err)
		}
		if err := rt.MergeViews(ctx, 1, childID); err != nil {
			t.Fatalf("round %d merge: %v", r, err)
		}
	}
	cancel()
	wg.Wait()

	v, _ := rt.View(1)
	for a := 0; a < words; a++ {
		var want uint64
		for w := 0; w < workers; w++ {
			want += tallies[w][a]
		}
		if got := v.Heap().Load(stm.Addr(a)); got != want {
			t.Errorf("word %d = %d, want %d", a, got, want)
		}
	}
}
