package stmds_test

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"votm/internal/core"
	"votm/internal/stm"
	"votm/internal/stmds"
)

func newSkipList(t *testing.T, v *core.View) *stmds.SkipList {
	t.Helper()
	sl, err := stmds.NewSkipList(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

// slPut inserts or overwrites key outside the hot path: allocate a spare,
// run the transaction, free the spare when it went unused.
func slPut(t *testing.T, v *core.View, th *core.Thread, sl *stmds.SkipList, key, val uint64) {
	t.Helper()
	spare, err := sl.NewNode(key)
	if err != nil {
		t.Fatal(err)
	}
	var used bool
	run(t, v, th, func(tx core.Tx) error {
		used = sl.Put(tx, key, val, spare)
		return nil
	})
	if !used {
		if err := sl.FreeNode(spare); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSkipListBasic(t *testing.T) {
	rt, v := newView(t, core.NOrec, 2, 1<<14, 2)
	th := rt.RegisterThread()
	sl := newSkipList(t, v)

	slPut(t, v, th, sl, 7, 70)
	slPut(t, v, th, sl, 3, 30)
	slPut(t, v, th, sl, 11, 110)

	run(t, v, th, func(tx core.Tx) error {
		for _, c := range []struct{ k, want uint64 }{{3, 30}, {7, 70}, {11, 110}} {
			if got, ok := sl.Get(tx, c.k); !ok || got != c.want {
				t.Errorf("Get(%d) = (%d,%v), want (%d,true)", c.k, got, ok, c.want)
			}
		}
		if _, ok := sl.Get(tx, 5); ok {
			t.Error("Get(5) found a phantom key")
		}
		if n := sl.Len(tx); n != 3 {
			t.Errorf("Len = %d, want 3", n)
		}
		return nil
	})

	// Overwrite updates in place, no new node consumed.
	slPut(t, v, th, sl, 7, 77)
	run(t, v, th, func(tx core.Tx) error {
		if got, _ := sl.Get(tx, 7); got != 77 {
			t.Errorf("after overwrite Get(7) = %d, want 77", got)
		}
		if n := sl.Len(tx); n != 3 {
			t.Errorf("Len after overwrite = %d, want 3", n)
		}
		return nil
	})
}

func TestSkipListSwap(t *testing.T) {
	rt, v := newView(t, core.NOrec, 2, 1<<14, 2)
	th := rt.RegisterThread()
	sl := newSkipList(t, v)

	spare, err := sl.NewNode(42)
	if err != nil {
		t.Fatal(err)
	}
	run(t, v, th, func(tx core.Tx) error {
		prev, existed, used := sl.Swap(tx, 42, 1, spare)
		if existed || !used || prev != 0 {
			t.Errorf("first Swap = (%d,%v,%v), want (0,false,true)", prev, existed, used)
		}
		return nil
	})
	spare2, err := sl.NewNode(42)
	if err != nil {
		t.Fatal(err)
	}
	run(t, v, th, func(tx core.Tx) error {
		prev, existed, used := sl.Swap(tx, 42, 2, spare2)
		if !existed || used || prev != 1 {
			t.Errorf("second Swap = (%d,%v,%v), want (1,true,false)", prev, existed, used)
		}
		return nil
	})
	if err := sl.FreeNode(spare2); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListDelete(t *testing.T) {
	rt, v := newView(t, core.NOrec, 2, 1<<14, 2)
	th := rt.RegisterThread()
	sl := newSkipList(t, v)

	keys := []uint64{9, 2, 6, 4, 13, 1}
	for _, k := range keys {
		slPut(t, v, th, sl, k, k*10)
	}
	var (
		node  stmds.Ref
		found bool
	)
	run(t, v, th, func(tx core.Tx) error {
		node, found = sl.Delete(tx, 6)
		return nil
	})
	if !found || node == stmds.NilRef {
		t.Fatalf("Delete(6) = (%v,%v)", node, found)
	}
	if err := sl.FreeNode(node); err != nil {
		t.Fatal(err)
	}
	run(t, v, th, func(tx core.Tx) error {
		if _, ok := sl.Get(tx, 6); ok {
			t.Error("deleted key still present")
		}
		if _, ok := sl.Delete(tx, 6); ok {
			t.Error("second Delete of same key succeeded")
		}
		if n := sl.Len(tx); n != len(keys)-1 {
			t.Errorf("Len = %d, want %d", n, len(keys)-1)
		}
		// Survivors intact and still ordered.
		want := []uint64{1, 2, 4, 9, 13}
		var got []uint64
		sl.ForEach(tx, func(k, val uint64) {
			got = append(got, k)
			if val != k*10 {
				t.Errorf("key %d holds %d, want %d", k, val, k*10)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("ForEach keys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ForEach keys = %v, want %v", got, want)
			}
		}
		return nil
	})
}

// TestSkipListOrderedIteration shuffles a key set in, then checks ForEach
// and Seek/Next both walk it back in ascending order.
func TestSkipListOrderedIteration(t *testing.T) {
	rt, v := newView(t, core.NOrec, 2, 1<<18, 2)
	th := rt.RegisterThread()
	sl := newSkipList(t, v)

	const n = 500
	rng := rand.New(rand.NewSource(8))
	keys := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	for len(keys) < n {
		k := uint64(rng.Intn(1 << 20))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		slPut(t, v, th, sl, k, ^k)
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	run(t, v, th, func(tx core.Tx) error {
		var got []uint64
		sl.ForEach(tx, func(k, val uint64) {
			got = append(got, k)
			if val != ^k {
				t.Errorf("key %d holds %d, want %d", k, val, ^k)
			}
		})
		if len(got) != n {
			t.Fatalf("ForEach visited %d keys, want %d", len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order broken at %d: got %d, want %d", i, got[i], want[i])
			}
		}
		// Seek from the midpoint resumes exactly mid-sequence.
		mid := want[n/2]
		node := sl.Seek(tx, mid)
		for i := n / 2; i < n; i++ {
			if node == stmds.NilRef {
				t.Fatalf("Seek walk ended early at %d", i)
			}
			if k := sl.NodeKey(tx, node); k != want[i] {
				t.Fatalf("Seek walk at %d: key %d, want %d", i, k, want[i])
			}
			node = sl.Next(tx, node)
		}
		if node != stmds.NilRef {
			t.Error("Seek walk ran past the end")
		}
		// Seek between keys lands on the successor; past the end is NilRef.
		if nd := sl.Seek(tx, want[n-1]+1); nd != stmds.NilRef {
			t.Error("Seek past max returned a node")
		}
		if nd := sl.First(tx); nd == stmds.NilRef || sl.NodeKey(tx, nd) != want[0] {
			t.Error("First does not return the least key")
		}
		return nil
	})
}

// TestSkipListDeterministicLayout checks NodeWords is a pure function of
// the key, identical across independent lists — the property whole-server
// replay relies on. A node is [key, val, hnext] followed by its tower.
func TestSkipListDeterministicLayout(t *testing.T) {
	rt, v := newView(t, core.NOrec, 2, 1<<14, 2)
	defer rt.RegisterThread().Release()
	a := newSkipList(t, v)
	b := newSkipList(t, v)
	heights := map[int]int{}
	for k := uint64(0); k < 4096; k++ {
		wa, wb := a.NodeWords(k), b.NodeWords(k)
		if wa != wb {
			t.Fatalf("NodeWords(%d) differs across instances: %d vs %d", k, wa, wb)
		}
		const header = 3
		if wa < header+1 {
			t.Fatalf("NodeWords(%d) = %d, below minimum node size", k, wa)
		}
		heights[wa-header]++
	}
	// Geometric(1/2) heights: roughly half the keys at height 1, and some
	// spread above it. Loose sanity bounds, not a distribution test.
	if heights[1] < 1500 || heights[1] > 2600 {
		t.Errorf("height-1 count %d outside sanity bounds", heights[1])
	}
	if len(heights) < 4 {
		t.Errorf("only %d distinct heights in 4096 keys", len(heights))
	}
}

// slHarness drives a skip list the way votmd's store kernel does — a node and,
// when NewDir asks for one, a larger directory allocated outside the
// transaction, linked inside it, and whatever was displaced freed after the
// commit — and holds it to a map oracle and the directory invariants
// (CheckChains) after every step.
type slHarness struct {
	t         *testing.T
	v         *core.View
	th        *core.Thread
	sl        *stmds.SkipList
	model     map[uint64]uint64
	doublings int
}

// newSLHarness builds a list whose first directory has the minimum 16 buckets
// (a 256-word view) on a heap then grown to hold the 256 keys the tests use.
// quota 1 runs every transaction in lock mode; more runs the STM engine.
func newSLHarness(t *testing.T, kind core.EngineKind, quota int) *slHarness {
	rt, v := newView(t, kind, 2, 1<<8, quota)
	sl := newSkipList(t, v)
	if err := v.Brk(1 << 13); err != nil {
		t.Fatal(err)
	}
	return &slHarness{t: t, v: v, th: rt.RegisterThread(), sl: sl, model: map[uint64]uint64{}}
}

// put sets key through Swap (or Put), growing the directory in the same
// transaction — before the link for odd keys, after it for even ones.
func (h *slHarness) put(key, val uint64, swap bool) {
	t := h.t
	t.Helper()
	spare, err := h.sl.NewNode(key)
	if err != nil {
		t.Fatal(err)
	}
	var dir stm.Addr
	words := h.sl.NewDir(len(h.model) + 1)
	if words > 0 {
		if dir, err = h.v.Alloc(words); err != nil {
			t.Fatal(err)
		}
	}
	var (
		prev, old           uint64
		existed, used, grew bool
	)
	run(t, h.v, h.th, func(tx core.Tx) error {
		grew = false
		if words > 0 && key%2 == 1 {
			old, grew = h.sl.GrowDir(tx, stmds.Ref(dir), words)
		}
		if swap {
			prev, existed, used = h.sl.Swap(tx, key, val, spare)
		} else {
			used = h.sl.Put(tx, key, val, spare)
			existed = !used
		}
		if words > 0 && key%2 == 0 {
			old, grew = h.sl.GrowDir(tx, stmds.Ref(dir), words)
		}
		return nil
	})
	frees := []stm.Addr{}
	if !used {
		frees = append(frees, stm.Addr(spare))
	}
	if grew {
		frees = append(frees, stm.Addr(old))
		h.doublings++
	} else if words > 0 {
		frees = append(frees, dir)
	}
	if err := h.v.FreeBatch(frees); err != nil {
		t.Fatal(err)
	}
	want, found := h.model[key]
	if existed != found || used == found || (swap && found && prev != want) {
		t.Fatalf("put(%d): existed=%v used=%v prev=%d; model holds (%d,%v)", key, existed, used, prev, want, found)
	}
	h.model[key] = val
}

func (h *slHarness) get(key uint64) {
	h.t.Helper()
	run(h.t, h.v, h.th, func(tx core.Tx) error {
		got, ok := h.sl.Get(tx, key)
		if want, found := h.model[key]; ok != found || got != want {
			h.t.Fatalf("Get(%d) = (%d,%v), model (%d,%v)", key, got, ok, want, found)
		}
		return nil
	})
}

func (h *slHarness) delete(key uint64) {
	h.t.Helper()
	var (
		node  stmds.Ref
		found bool
	)
	run(h.t, h.v, h.th, func(tx core.Tx) error {
		node, found = h.sl.Delete(tx, key)
		return nil
	})
	if _, want := h.model[key]; found != want {
		h.t.Fatalf("Delete(%d) found=%v, model says %v", key, found, want)
	}
	if found {
		if err := h.sl.FreeNode(node); err != nil {
			h.t.Fatal(err)
		}
		delete(h.model, key)
	}
}

// seek checks that Seek(from) lands on the model's least key >= from.
func (h *slHarness) seek(from uint64) {
	h.t.Helper()
	want, ok := uint64(0), false
	for k := range h.model {
		if k >= from && (!ok || k < want) {
			want, ok = k, true
		}
	}
	run(h.t, h.v, h.th, func(tx core.Tx) error {
		n := h.sl.Seek(tx, from)
		if (n != stmds.NilRef) != ok || (ok && h.sl.NodeKey(tx, n) != want) {
			h.t.Fatalf("Seek(%d) = node %d; the model's least key >= it is (%d,%v)", from, n, want, ok)
		}
		return nil
	})
}

// check holds the directory to the level-0 list, and the list to the model.
func (h *slHarness) check() {
	h.t.Helper()
	run(h.t, h.v, h.th, func(tx core.Tx) error {
		if err := h.sl.CheckChains(tx); err != nil {
			h.t.Fatal(err)
		}
		if n := h.sl.Len(tx); n != len(h.model) {
			h.t.Fatalf("Len = %d, model holds %d", n, len(h.model))
		}
		if b := h.sl.Buckets(tx); len(h.model) > b {
			h.t.Fatalf("%d keys in %d buckets: a put did not grow the directory", len(h.model), b)
		}
		return nil
	})
}

// TestSkipListQuickVsModel drives a random op sequence against a Go map
// oracle, including interleaved deletes, across four doublings of the
// directory (16 to 256 buckets), checking the chains after every step, then
// verifies content and order.
func TestSkipListQuickVsModel(t *testing.T) {
	h := newSLHarness(t, core.NOrec, 2)
	rng := rand.New(rand.NewSource(88))
	for i := 0; i < 2000; i++ {
		key := uint64(rng.Intn(256))
		switch rng.Intn(4) {
		case 0, 1:
			h.put(key, uint64(i), rng.Intn(2) == 0)
		case 2:
			h.get(key)
		default:
			h.delete(key)
		}
		h.check()
	}
	if h.doublings < 3 {
		t.Errorf("the directory doubled %d times, want >= 3", h.doublings)
	}
	run(t, h.v, h.th, func(tx core.Tx) error {
		var prev uint64
		first := true
		count := 0
		h.sl.ForEach(tx, func(k, val uint64) {
			if !first && k <= prev {
				t.Errorf("order broken: %d after %d", k, prev)
			}
			first, prev = false, k
			count++
			if want, ok := h.model[k]; !ok || val != want {
				t.Errorf("key %d = %d, model (%d,%v)", k, val, want, ok)
			}
		})
		if count != len(h.model) {
			t.Errorf("list holds %d keys, model %d", count, len(h.model))
		}
		return nil
	})
}

// TestSkipListOverwriteAfterDoubling fills a list past directory doublings,
// then overwrites every key through Swap: each call must find the key (on its
// rebuilt chain), take no spare node and leave the count, the chains and the
// level-0 nodes in place, value words aside.
func TestSkipListOverwriteAfterDoubling(t *testing.T) {
	for _, q := range []struct {
		name  string
		quota int
	}{{"lock", 1}, {"norec", 2}} {
		t.Run(q.name, func(t *testing.T) {
			h := newSLHarness(t, core.NOrec, q.quota)
			const n = 200
			for k := uint64(0); k < n; k++ {
				h.put(k*7, k, true)
			}
			if h.doublings < 1 {
				t.Fatalf("the directory doubled %d times, want >= 1", h.doublings)
			}
			level0 := func() []stmds.Ref {
				var nodes []stmds.Ref
				run(t, h.v, h.th, func(tx core.Tx) error {
					nodes = nodes[:0]
					for nd := h.sl.First(tx); nd != stmds.NilRef; nd = h.sl.Next(tx, nd) {
						nodes = append(nodes, nd)
					}
					return nil
				})
				return nodes
			}
			before := level0()

			for k := uint64(0); k < n; k++ {
				spare, err := h.sl.NewNode(k * 7)
				if err != nil {
					t.Fatal(err)
				}
				var (
					prev          uint64
					existed, used bool
				)
				run(t, h.v, h.th, func(tx core.Tx) error {
					prev, existed, used = h.sl.Swap(tx, k*7, k+1000, spare)
					return nil
				})
				if !existed || used || prev != k {
					t.Fatalf("overwrite of key %d: Swap = (%d,%v,%v), want (%d,true,false)", k*7, prev, existed, used, k)
				}
				if err := h.sl.FreeNode(spare); err != nil {
					t.Fatal(err)
				}
				h.model[k*7] = k + 1000
			}

			h.check() // CheckChains, and Len against the model's n keys
			if after := level0(); !slices.Equal(after, before) {
				t.Errorf("level 0 changed under overwrites: %d nodes before, %d after", len(before), len(after))
			}
			for k := uint64(0); k < n; k++ {
				h.get(k * 7)
			}
		})
	}
}

// FuzzSkipList runs an op program — Put, Swap, Get, Delete and Seek over 256
// keys, so the directory doubles from 16 buckets up to 256 — against the map
// oracle, with CheckChains after every op. The first byte picks lock mode or
// NOrec.
func FuzzSkipList(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 5, 1, 5, 2, 5, 3, 5, 4, 0})
	grow := []byte{0}
	for k := 0; k < 200; k++ {
		grow = append(grow, byte(k%2), byte(k))
	}
	for k := 0; k < 200; k += 3 {
		grow = append(grow, 3, byte(k), 2, byte(k+1), 4, byte(k))
	}
	f.Add(grow)
	f.Add(append([]byte{1}, grow[1:]...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		quota := 1
		if prog[0]%2 == 1 {
			quota = 2
		}
		h := newSLHarness(t, core.NOrec, quota)
		for i := 1; i+1 < len(prog); i += 2 {
			key := uint64(prog[i+1])
			switch prog[i] % 5 {
			case 0:
				h.put(key, uint64(i), false)
			case 1:
				h.put(key, uint64(i), true)
			case 2:
				h.get(key)
			case 3:
				h.delete(key)
			case 4:
				h.seek(key)
			}
			h.check()
		}
	})
}

// TestSkipListConcurrentDisjointKeys has several goroutines churn disjoint
// key ranges of one shared list under NOrec, then validates every range —
// the access pattern of the connection readers that hold one shard's
// executor tokens and run its write groups side by side.
func TestSkipListConcurrentDisjointKeys(t *testing.T) {
	const (
		workers = 4
		span    = 64
	)
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	rt, v := newView(t, core.NOrec, workers, 1<<20, workers)
	sl := newSkipList(t, v)

	models := make([]map[uint64]uint64, workers)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		models[w] = make(map[uint64]uint64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(w)*991 + 7))
			model := models[w]
			for r := 0; r < rounds; r++ {
				key := uint64(w*span + rng.Intn(span))
				val := uint64(r + 1)
				if rng.Intn(4) == 0 {
					var (
						node  stmds.Ref
						found bool
					)
					if err := v.Atomic(context.Background(), th, func(tx core.Tx) error {
						node, found = sl.Delete(tx, key)
						return nil
					}); err != nil {
						errCh <- err
						return
					}
					if found {
						_ = sl.FreeNode(node)
						delete(model, key)
					}
					continue
				}
				spare, err := sl.NewNode(key)
				if err != nil {
					errCh <- err
					return
				}
				var used bool
				if err := v.Atomic(context.Background(), th, func(tx core.Tx) error {
					used = sl.Put(tx, key, val, spare)
					return nil
				}); err != nil {
					errCh <- err
					return
				}
				if !used {
					_ = sl.FreeNode(spare)
				}
				model[key] = val
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	th := rt.RegisterThread()
	total := 0
	for w, model := range models {
		total += len(model)
		for k := uint64(w * span); k < uint64((w+1)*span); k++ {
			var (
				got uint64
				ok  bool
			)
			run(t, v, th, func(tx core.Tx) error {
				got, ok = sl.Get(tx, k)
				return nil
			})
			want, exists := model[k]
			if ok != exists || (ok && got != want) {
				t.Errorf("key %d: list (%d,%v), model (%d,%v)", k, got, ok, want, exists)
			}
		}
	}
	run(t, v, th, func(tx core.Tx) error {
		if n := sl.Len(tx); n != total {
			t.Errorf("Len = %d, models hold %d", n, total)
		}
		var prev uint64
		first := true
		sl.ForEach(tx, func(k, _ uint64) {
			if !first && k <= prev {
				t.Errorf("order broken: %d after %d", k, prev)
			}
			first, prev = false, k
		})
		return nil
	})
}
