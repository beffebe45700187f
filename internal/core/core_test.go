package core_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"votm/internal/core"
	"votm/internal/stm"
	"votm/internal/trace"
)

var engines = []core.EngineKind{core.NOrec, core.OrecEagerRedo, core.TL2}

func newRT(t *testing.T, kind core.EngineKind, threads int) *core.Runtime {
	t.Helper()
	return core.NewRuntime(core.Config{Threads: threads, Engine: kind})
}

func TestCreateViewAndLookup(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, err := rt.CreateView(1, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID() != 1 || v.Size() != 128 || v.Quota() != 4 {
		t.Errorf("view: id=%d size=%d q=%d", v.ID(), v.Size(), v.Quota())
	}
	got, err := rt.View(1)
	if err != nil || got != v {
		t.Errorf("View(1) = %v, %v", got, err)
	}
	if len(rt.Views()) != 1 {
		t.Errorf("Views() len = %d", len(rt.Views()))
	}
}

func TestCreateViewDuplicate(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	if _, err := rt.CreateView(1, 16, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateView(1, 16, 1); !errors.Is(err, core.ErrViewExists) {
		t.Errorf("err = %v, want ErrViewExists", err)
	}
}

func TestCreateViewNegativeSize(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	if _, err := rt.CreateView(1, -1, 1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestUnknownView(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	if _, err := rt.View(9); !errors.Is(err, core.ErrNoView) {
		t.Errorf("err = %v, want ErrNoView", err)
	}
	if err := rt.DestroyView(9); !errors.Is(err, core.ErrNoView) {
		t.Errorf("destroy err = %v, want ErrNoView", err)
	}
}

func TestDestroyView(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	v, _ := rt.CreateView(1, 16, 4)
	if err := rt.DestroyView(1); err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	if err := v.Atomic(context.Background(), th, func(core.Tx) error { return nil }); !errors.Is(err, core.ErrViewDestroyed) {
		t.Errorf("Atomic on destroyed view: %v", err)
	}
	if _, err := v.Alloc(1); !errors.Is(err, core.ErrViewDestroyed) {
		t.Errorf("Alloc on destroyed view: %v", err)
	}
	if err := v.Free(0); !errors.Is(err, core.ErrViewDestroyed) {
		t.Errorf("Free on destroyed view: %v", err)
	}
	if err := v.Brk(4); !errors.Is(err, core.ErrViewDestroyed) {
		t.Errorf("Brk on destroyed view: %v", err)
	}
	// The ID becomes reusable.
	if _, err := rt.CreateView(1, 16, 4); err != nil {
		t.Errorf("recreate after destroy: %v", err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []core.Config{
		{Threads: 0},
		{Threads: 4, Engine: "bogus"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			core.NewRuntime(cfg)
		}()
	}
}

func TestEngineSelection(t *testing.T) {
	rtN := newRT(t, core.NOrec, 2)
	vN, _ := rtN.CreateView(1, 8, 2)
	if vN.EngineName() != "NOrec" {
		t.Errorf("engine = %s", vN.EngineName())
	}
	rtO := newRT(t, core.OrecEagerRedo, 2)
	vO, _ := rtO.CreateView(1, 8, 2)
	if vO.EngineName() != "OrecEagerRedo" {
		t.Errorf("engine = %s", vO.EngineName())
	}
	// Default engine is NOrec.
	rtD := core.NewRuntime(core.Config{Threads: 2})
	vD, _ := rtD.CreateView(1, 8, 2)
	if vD.EngineName() != "NOrec" {
		t.Errorf("default engine = %s", vD.EngineName())
	}
}

func TestAtomicCounterAllEnginesAllQuotas(t *testing.T) {
	for _, kind := range engines {
		for _, q := range []int{1, 2, 4} {
			kind, q := kind, q
			t.Run(string(kind)+"/Q="+string(rune('0'+q)), func(t *testing.T) {
				const workers, per = 4, 250
				rt := newRT(t, kind, workers)
				v, _ := rt.CreateView(1, 64, q)
				addr, _ := v.Alloc(1)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						th := rt.RegisterThread()
						for i := 0; i < per; i++ {
							err := v.Atomic(context.Background(), th, func(tx core.Tx) error {
								tx.Store(addr, tx.Load(addr)+1)
								return nil
							})
							if err != nil {
								t.Errorf("Atomic: %v", err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if got := v.Heap().Load(addr); got != workers*per {
					t.Errorf("counter = %d, want %d", got, workers*per)
				}
				tot := v.Totals()
				if tot.Commits != workers*per {
					t.Errorf("commits = %d, want %d", tot.Commits, workers*per)
				}
			})
		}
	}
}

func TestLockModeBypassesInstrumentation(t *testing.T) {
	// At Q=1 the commit must always succeed and no aborts can occur.
	rt := newRT(t, core.OrecEagerRedo, 4)
	v, _ := rt.CreateView(1, 16, 1)
	addr, _ := v.Alloc(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < 200; i++ {
				_ = v.Atomic(context.Background(), th, func(tx core.Tx) error {
					tx.Store(addr, tx.Load(addr)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := v.Heap().Load(addr); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
	tot := v.Totals()
	if tot.Aborts != 0 {
		t.Errorf("lock mode aborted %d times", tot.Aborts)
	}
}

func TestUserErrorAbortsWithoutRetry(t *testing.T) {
	sentinel := errors.New("user says no")
	for _, kind := range engines {
		rt := newRT(t, kind, 2)
		v, _ := rt.CreateView(1, 16, 2)
		th := rt.RegisterThread()
		calls := 0
		err := v.Atomic(context.Background(), th, func(tx core.Tx) error {
			calls++
			tx.Store(0, 99)
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: err = %v", kind, err)
		}
		if calls != 1 {
			t.Errorf("%s: body ran %d times, want 1", kind, calls)
		}
		if got := v.Heap().Load(0); got != 0 {
			t.Errorf("%s: user-error write leaked: %d", kind, got)
		}
		if v.Totals().Aborts != 1 {
			t.Errorf("%s: aborts = %d, want 1", kind, v.Totals().Aborts)
		}
	}
}

func TestReadOnlyStorePanics(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 16, 2)
	th := rt.RegisterThread()
	defer func() {
		if recover() == nil {
			t.Error("Store in AtomicRead did not panic")
		}
	}()
	_ = v.AtomicRead(context.Background(), th, func(tx core.Tx) error {
		tx.Store(0, 1)
		return nil
	})
}

func TestReadOnlyLockModeStorePanics(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 16, 1) // lock mode
	th := rt.RegisterThread()
	defer func() {
		if recover() == nil {
			t.Error("Store in lock-mode AtomicRead did not panic")
		}
	}()
	_ = v.AtomicRead(context.Background(), th, func(tx core.Tx) error {
		tx.Store(0, 1)
		return nil
	})
}

// wordRuns is the run interface package enc looks for on a handle.
type wordRuns interface {
	AppendWords(dst []byte, a stm.Addr, n int) []byte
	StoreWords(a stm.Addr, src []byte)
}

// TestReadOnlyLockModeStoreWordsPanics: the read-only lock-mode handle
// refuses a run of words as it refuses one word, before any word moves.
func TestReadOnlyLockModeStoreWordsPanics(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 16, 1) // lock mode
	th := rt.RegisterThread()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("StoreWords in lock-mode AtomicRead did not panic")
			}
		}()
		_ = v.AtomicRead(context.Background(), th, func(tx core.Tx) error {
			r, ok := tx.(wordRuns)
			if !ok {
				t.Fatal("the lock-mode read handle offers no word runs")
			}
			r.StoreWords(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			return nil
		})
	}()
	if got := v.Heap().Load(0); got != 0 {
		t.Errorf("word 0 = %#x after a refused StoreWords", got)
	}
}

// TestWordRunsOnlyOnLockHandle: only the lock-mode handle moves runs of
// words; a TM transaction and its read-only wrapper move word by word.
func TestWordRunsOnlyOnLockHandle(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	lock, _ := rt.CreateView(1, 256, 1)
	tm, _ := rt.CreateView(2, 256, 2)
	th := rt.RegisterThread()
	offers := func(v *core.View, read bool) (ok bool) {
		body := func(tx core.Tx) error { _, ok = tx.(wordRuns); return nil }
		if read {
			_ = v.AtomicRead(context.Background(), th, body)
		} else {
			_ = v.Atomic(context.Background(), th, body)
		}
		return ok
	}
	if !offers(lock, false) || !offers(lock, true) {
		t.Error("the lock-mode handles offer no word runs")
	}
	if offers(tm, false) || offers(tm, true) {
		t.Error("a TM handle offers word runs")
	}
}

func TestAtomicReadSeesCommittedState(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 16, 2)
	th := rt.RegisterThread()
	_ = v.Atomic(context.Background(), th, func(tx core.Tx) error {
		tx.Store(3, 42)
		return nil
	})
	var got uint64
	if err := v.AtomicRead(context.Background(), th, func(tx core.Tx) error {
		got = tx.Load(3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("read = %d, want 42", got)
	}
}

func TestNilThread(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 16, 2)
	if err := v.Atomic(context.Background(), nil, func(core.Tx) error { return nil }); err == nil {
		t.Error("nil thread accepted")
	}
}

func TestContextCancelBeforeEntry(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 16, 2)
	th := rt.RegisterThread()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := v.Atomic(ctx, th, func(core.Tx) error { return nil }); err != context.Canceled {
		t.Errorf("err = %v, want Canceled", err)
	}
}

func TestNoAdmissionMode(t *testing.T) {
	rt := core.NewRuntime(core.Config{Threads: 4, Engine: core.NOrec, NoAdmission: true})
	v, _ := rt.CreateView(1, 16, 1) // quota ignored: no admission control
	addr, _ := v.Alloc(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < 100; i++ {
				_ = v.Atomic(context.Background(), th, func(tx core.Tx) error {
					tx.Store(addr, tx.Load(addr)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := v.Heap().Load(addr); got != 400 {
		t.Errorf("counter = %d, want 400", got)
	}
	if v.Totals().Commits != 400 {
		t.Errorf("commits = %d", v.Totals().Commits)
	}
}

func TestAllocFreeBrkIntegration(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 8, 2)
	a1, err := v.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Alloc(1); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if err := v.Brk(8); err != nil {
		t.Fatal(err)
	}
	if v.Size() != 16 {
		t.Errorf("Size = %d, want 16", v.Size())
	}
	a2, err := v.Alloc(8)
	if err != nil {
		t.Fatalf("alloc after brk: %v", err)
	}
	th := rt.RegisterThread()
	// Words from the brk'd region are transactional like any other.
	_ = v.Atomic(context.Background(), th, func(tx core.Tx) error {
		tx.Store(a2, 7)
		return nil
	})
	if v.Heap().Load(a2) != 7 {
		t.Error("brk'd region not transactional")
	}
	if err := v.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := v.Brk(-1); err == nil {
		t.Error("negative Brk accepted")
	}
}

func TestViewsAreIsolatedTMInstances(t *testing.T) {
	// Transactions in view A never conflict with transactions in view B,
	// even at the same addresses — the structural property behind
	// Observation 2.
	rt := newRT(t, core.NOrec, 8)
	va, _ := rt.CreateView(1, 16, 8)
	vb, _ := rt.CreateView(2, 16, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.RegisterThread()
			v := va
			if id%2 == 1 {
				v = vb
			}
			for i := 0; i < 300; i++ {
				_ = v.Atomic(context.Background(), th, func(tx core.Tx) error {
					tx.Store(0, tx.Load(0)+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if va.Heap().Load(0) != 600 || vb.Heap().Load(0) != 600 {
		t.Errorf("counters = %d, %d; want 600, 600",
			va.Heap().Load(0), vb.Heap().Load(0))
	}
}

func TestThreadIDsUnique(t *testing.T) {
	rt := newRT(t, core.NOrec, 4)
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		th := rt.RegisterThread()
		if seen[th.ID()] {
			t.Fatalf("duplicate thread ID %d", th.ID())
		}
		seen[th.ID()] = true
	}
}

func TestConflictRetryReexecutesBody(t *testing.T) {
	// Force a conflict: two threads increment; at least one attempt must
	// retry under NOrec when interleaved. We can't force scheduling, so
	// assert the weaker property: commits == increments and the body may
	// run more times than commits (retries), never fewer.
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 16, 2)
	const per = 400
	var bodyRuns [2]int
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < per; i++ {
				_ = v.Atomic(context.Background(), th, func(tx core.Tx) error {
					bodyRuns[id]++
					tx.Store(0, tx.Load(0)+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if got := v.Heap().Load(0); got != 2*per {
		t.Fatalf("counter = %d, want %d", got, 2*per)
	}
	if bodyRuns[0] < per || bodyRuns[1] < per {
		t.Errorf("body runs %v, want >= %d each", bodyRuns, per)
	}
	tot := v.Totals()
	if int(tot.Commits) != 2*per {
		t.Errorf("commits = %d", tot.Commits)
	}
	if int64(bodyRuns[0]+bodyRuns[1]) != tot.Commits+tot.Aborts {
		t.Errorf("body runs %d != commits %d + aborts %d",
			bodyRuns[0]+bodyRuns[1], tot.Commits, tot.Aborts)
	}
}

func TestHeapAccessorAndConfig(t *testing.T) {
	cfg := core.Config{Threads: 3, Engine: core.OrecEagerRedo, SuicideCM: true}
	rt := core.NewRuntime(cfg)
	if rt.Config().Threads != 3 {
		t.Error("Config accessor wrong")
	}
	v, _ := rt.CreateView(1, 8, 3)
	if v.Heap() == nil || v.Controller() == nil {
		t.Error("nil accessors")
	}
	var _ stm.Addr // keep stm import for Addr type visibility in this test file
}

func TestQuotaAccessorsAndTrace(t *testing.T) {
	rt := core.NewRuntime(core.Config{Threads: 8})
	v, _ := rt.CreateView(9, 8, 8)
	v.SetQuota(2)
	if v.Quota() != 2 {
		t.Errorf("Quota = %d", v.Quota())
	}
	if v.QuotaMoves() != 1 {
		t.Errorf("QuotaMoves = %d", v.QuotaMoves())
	}
	if got := v.SettledQuota(); got != 8 && got != 2 {
		t.Errorf("SettledQuota = %d", got)
	}
	events := rt.Decisions().Entries()
	if len(events) != 1 || events[0].Subject != 9 || events[0].From != 8 || events[0].To != 2 {
		t.Errorf("trace events = %v", events)
	}
	if d := events[0]; d.Loop != trace.Quota || d.Reason != "set" || !math.IsNaN(d.Delta) {
		t.Errorf("manual set logged as %+v", d)
	}
}

func TestAtomicCancelDuringRetryWait(t *testing.T) {
	// A worker blocked in admission (Q=1 held by a lock-mode occupant)
	// must return ctx.Err() when cancelled.
	rt := newRT(t, core.NOrec, 2)
	v, _ := rt.CreateView(1, 8, 1)
	thA := rt.RegisterThread()
	thB := rt.RegisterThread()

	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = v.Atomic(context.Background(), thA, func(tx core.Tx) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- v.Atomic(ctx, thB, func(core.Tx) error { return nil })
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Atomic never returned")
	}
	close(release)
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
	var got uint64
	if err := v.AtomicRead(context.Background(), th, func(tx core.Tx) error {
		got = tx.Load(5)
		return nil
	}); err != nil || got != 55 {
		t.Errorf("read after Exclusive = %d, %v", got, err)
	}
	// A panicking body must release the quiescence.
	func() {
		defer func() { recover() }()
		v.Exclusive(context.Background(), func(core.Tx) error { panic("boom") })
	}()
	// Would hang if the pause leaked.
	if err := v.Atomic(context.Background(), th, func(tx core.Tx) error {
		tx.Store(6, 66)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
