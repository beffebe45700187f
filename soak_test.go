package votm_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm"
	"votm/ds"
	"votm/enc"
)

// TestSoakEverything is a kitchen-sink integration soak: three views with
// different engines, concurrent workers mixing counters, data structures
// and byte buffers, a background engine switcher, adaptive RAC on the hot
// view, allocation churn, and the decision log — all invariants checked at
// the end. Skipped in -short mode.
func TestSoakEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	const (
		workers  = 8
		rounds   = 150
		accounts = 16
	)
	ctx := context.Background()
	rt := votm.New(votm.Config{
		Threads:     workers,
		Engine:      votm.NOrec,
		AdjustEvery: 128,
	})

	// View 1: hot counters under adaptive RAC (engine switched live).
	hot, err := rt.CreateView(1, 64, votm.AdaptiveQuota)
	if err != nil {
		t.Fatal(err)
	}
	hotBase, _ := hot.Alloc(accounts)
	setup := rt.RegisterThread()
	_ = hot.Atomic(ctx, setup, func(tx votm.Tx) error {
		for i := 0; i < accounts; i++ {
			tx.Store(hotBase+votm.Addr(i), 1000)
		}
		return nil
	})

	// View 2: a TL2-backed hash map with allocation churn.
	dict, err := rt.CreateViewWithEngine(2, 1<<16, workers, votm.TL2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ds.NewHashMap(dict, 128)
	if err != nil {
		t.Fatal(err)
	}

	// View 3: byte buffers on OrecEagerRedo.
	blobs, err := rt.CreateViewWithEngine(3, 1<<14, workers, votm.OrecEagerRedo)
	if err != nil {
		t.Fatal(err)
	}
	blobBase := make([]votm.Addr, workers)
	for i := range blobBase {
		blobBase[i], _ = blobs.Alloc(64)
	}

	var inserted, deleted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := rand.New(rand.NewSource(int64(id) * 31))
			var myKeys []uint64
			for i := 0; i < rounds; i++ {
				// 1. Hot transfer (conserves total).
				from := votm.Addr(rng.Intn(accounts))
				to := votm.Addr(rng.Intn(accounts))
				if err := hot.Atomic(ctx, th, func(tx votm.Tx) error {
					if from == to {
						return nil
					}
					b := tx.Load(hotBase + from)
					if b == 0 {
						return nil
					}
					runtime.Gosched() // hold the transaction open (overlap)
					tx.Store(hotBase+from, b-1)
					tx.Store(hotBase+to, tx.Load(hotBase+to)+1)
					return nil
				}); err != nil {
					t.Errorf("hot: %v", err)
					return
				}

				// 2. Dictionary insert or delete with node churn.
				if len(myKeys) > 4 && rng.Intn(3) == 0 {
					k := myKeys[rng.Intn(len(myKeys))]
					var node ds.Ref
					var ok bool
					_ = dict.Atomic(ctx, th, func(tx votm.Tx) error {
						node, ok = m.Delete(tx, k)
						return nil
					})
					if ok {
						_ = m.FreeNode(node)
						deleted.Add(1)
						for j, kk := range myKeys {
							if kk == k {
								myKeys = append(myKeys[:j], myKeys[j+1:]...)
								break
							}
						}
					}
				} else {
					key := uint64(id)<<32 | uint64(i)
					spare, aerr := m.NewNode()
					if aerr != nil {
						t.Errorf("NewNode: %v", aerr)
						return
					}
					var used bool
					_ = dict.Atomic(ctx, th, func(tx votm.Tx) error {
						used = m.Put(tx, key, key^0xabcdef, spare)
						return nil
					})
					if !used {
						t.Errorf("fresh key %d collided", key)
						_ = m.FreeNode(spare)
					} else {
						inserted.Add(1)
						myKeys = append(myKeys, key)
					}
				}

				// 3. Blob write/verify round trip in the worker's segment.
				msg := []byte{byte(id), byte(i), byte(i >> 8), 0xAA}
				if err := blobs.Atomic(ctx, th, func(tx votm.Tx) error {
					enc.StoreBytes(tx, blobBase[id], i%32, msg)
					got := enc.LoadBytes(tx, blobBase[id], i%32, len(msg))
					for k := range msg {
						if got[k] != msg[k] {
							t.Errorf("blob mismatch worker %d round %d", id, i)
							break
						}
					}
					return nil
				}); err != nil {
					t.Errorf("blobs: %v", err)
					return
				}
			}
		}(w)
	}

	// Background engine switcher on the hot view.
	stop := make(chan struct{})
	switcherDone := make(chan struct{})
	go func() {
		defer close(switcherDone)
		kinds := []votm.EngineKind{votm.TL2, votm.OrecEagerRedo, votm.NOrec}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := hot.SwitchEngine(ctx, kinds[i%len(kinds)]); err != nil {
				t.Errorf("switch: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-switcherDone

	// Invariant 1: hot total conserved across all transfers and switches.
	var total uint64
	_ = hot.AtomicRead(ctx, setup, func(tx votm.Tx) error {
		for i := 0; i < accounts; i++ {
			total += tx.Load(hotBase + votm.Addr(i))
		}
		return nil
	})
	if total != accounts*1000 {
		t.Errorf("hot total = %d, want %d", total, accounts*1000)
	}

	// Invariant 2: dictionary size matches inserts − deletes, and every
	// surviving key round-trips.
	wantLen := int(inserted.Load() - deleted.Load())
	_ = dict.Atomic(ctx, setup, func(tx votm.Tx) error {
		if got := m.Len(tx); got != wantLen {
			t.Errorf("dict len = %d, want %d", got, wantLen)
		}
		return nil
	})

	// Invariant 3: the decision log saw the adaptive churn without corruption.
	events := rt.Decisions().Entries()
	for _, ev := range events {
		if ev.Loop != votm.DecisionQuota || ev.From == ev.To || ev.From < 1 || ev.To < 1 || ev.From > workers || ev.To > workers {
			t.Errorf("bogus quota event %+v", ev)
		}
	}
	if got, want := rt.Decisions().Count(votm.DecisionQuota), hot.QuotaMoves()+dict.QuotaMoves()+blobs.QuotaMoves(); got != want {
		t.Errorf("decision log counted %d quota moves, views made %d", got, want)
	}
	t.Logf("soak: inserted=%d deleted=%d quotaEvents=%d hotEngine=%s",
		inserted.Load(), deleted.Load(), len(events), hot.EngineName())
}
