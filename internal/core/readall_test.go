package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm/internal/core"
	"votm/internal/faultinject"
	"votm/internal/stm"
)

// tornWords is how many words a writer keeps equal: the invariant the readers
// check. Several words widen a TM commit's write-back, the window a reader
// without validation would see torn.
const tornWords = 8

// writeAll stores n into every invariant word, yielding between stores so a
// lock-mode writer is caught mid-way as often as possible.
func writeAll(tx core.Tx, n uint64) {
	for a := stm.Addr(0); a < tornWords; a++ {
		tx.Store(a, n)
		runtime.Gosched()
	}
}

// TestReadAllNeverSeesATornState races ReadAll against writers of every kind
// — lock-mode Atomic, TM commits under NOrec, OrecEagerRedo and TL2, an
// escalation, Exclusive and a writing AtomicAll — each keeping its view's
// words equal. Every read ReadAll validates must see them equal: each kind
// writes the heap inside its view's write bracket, and dropping any one
// bracket fails this test.
func TestReadAllNeverSeesATornState(t *testing.T) {
	const threads = 4
	rt := core.NewRuntime(core.Config{Threads: threads})
	// Every optimistic commit on the escalation runtime conflicts, so each of
	// its transactions escalates after one try.
	esc := core.NewRuntime(core.Config{Threads: threads, MaxConflictRetries: 1,
		FaultHook: func(op faultinject.Op, _ int, _ stm.Addr) {
			if op == faultinject.OpCommit {
				stm.Throw("test: forced commit conflict")
			}
		}})
	view := func(rt *core.Runtime, vid, quota int, kind core.EngineKind) *core.View {
		v, err := rt.CreateViewWithEngine(vid, 64, quota, kind)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	ctx := context.Background()
	type writer struct {
		name  string
		rt    *core.Runtime
		v     *core.View
		write func(th *core.Thread, v *core.View, n uint64) error
	}
	atomicWrite := func(th *core.Thread, v *core.View, n uint64) error {
		return v.Atomic(ctx, th, func(tx core.Tx) error { writeAll(tx, n); return nil })
	}
	writers := []writer{
		{"lock-mode", rt, view(rt, 1, 1, core.NOrec), atomicWrite},
		{"norec", rt, view(rt, 2, threads, core.NOrec), atomicWrite},
		{"oreceager", rt, view(rt, 3, threads, core.OrecEagerRedo), atomicWrite},
		{"tl2", rt, view(rt, 4, threads, core.TL2), atomicWrite},
		{"escalation", esc, view(esc, 1, threads, core.NOrec), atomicWrite},
		{"exclusive", rt, view(rt, 5, threads, core.NOrec), func(_ *core.Thread, v *core.View, n uint64) error {
			return v.Exclusive(ctx, func(tx core.Tx) error { writeAll(tx, n); return nil })
		}},
		{"atomicall", rt, view(rt, 6, threads, core.NOrec), func(th *core.Thread, v *core.View, n uint64) error {
			return core.AtomicAll(ctx, th, []*core.View{v}, false, func(txs []core.Tx) error { writeAll(txs[0], n); return nil })
		}},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			var (
				stop     atomic.Bool
				wg       sync.WaitGroup
				ok, torn atomic.Int64
				written  atomic.Bool // a validated read saw a later write's words
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := w.rt.RegisterThread()
				for n := uint64(1); !stop.Load(); n++ {
					if err := w.write(th, w.v, n); err != nil {
						t.Errorf("write %d: %v", n, err)
						return
					}
					// Leave the readers a gap, or a writer that never pauses
					// would refuse every read.
					for i := 0; i < 2*tornWords; i++ {
						runtime.Gosched()
					}
				}
			}()
			views := []*core.View{w.v}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := w.rt.RegisterThread()
					var got [tornWords]uint64
					for !stop.Load() {
						valid, err := core.ReadAll(th, views, func(txs []core.Tx) error {
							for a := range got {
								got[a] = txs[0].Load(stm.Addr(a))
								runtime.Gosched()
							}
							return nil
						})
						if err != nil {
							t.Errorf("ReadAll: %v", err)
							return
						}
						if !valid {
							runtime.Gosched()
							continue
						}
						ok.Add(1)
						if got[0] > 1 {
							written.Store(true)
						}
						for _, x := range got {
							if x != got[0] {
								torn.Add(1)
								t.Errorf("a validated read saw %v", got)
								return
							}
						}
					}
				}()
			}
			time.Sleep(150 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			if !written.Load() {
				t.Errorf("%d reads validated, none after a second write: the race proved nothing", ok.Load())
			}
			t.Logf("%d validated reads, %d torn", ok.Load(), torn.Load())
		})
	}
}

// TestReadAllStopsALoopingRead: a read that began before a write and would
// run forever ends within a check interval of the write beginning, with ok
// false — the bound on how long a torn state can steer fn.
func TestReadAllStopsALoopingRead(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, err := rt.CreateView(1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan bool)
	go func() {
		th := rt.RegisterThread()
		once := sync.Once{}
		valid, _ := core.ReadAll(th, []*core.View{v}, func(txs []core.Tx) error {
			once.Do(func() { close(started) })
			for {
				txs[0].Load(0)
			}
		})
		done <- valid
	}()
	<-started
	if err := v.Atomic(context.Background(), rt.RegisterThread(), func(tx core.Tx) error {
		tx.Store(0, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case valid := <-done:
		if valid {
			t.Error("a read overlapped by a write reported ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the looping read never noticed the write")
	}
}

// TestReadAllStates pins the answers that need no race: a read while a write
// is under way is refused at once; a panic out of fn on a view nobody writes
// propagates with its value, as does a Store; fn's error comes back with ok;
// a destroyed view answers ErrViewDestroyed.
func TestReadAllStates(t *testing.T) {
	rt := newRT(t, core.NOrec, 2)
	v, err := rt.CreateView(1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	views := []*core.View{v}
	read := func(tx []core.Tx) error { tx[0].Load(0); return nil }

	inside, release := make(chan struct{}), make(chan struct{})
	go func() {
		_ = v.Exclusive(context.Background(), func(core.Tx) error {
			close(inside)
			<-release
			return nil
		})
	}()
	<-inside
	if valid, err := core.ReadAll(th, views, read); valid || err != nil {
		t.Errorf("ReadAll during Exclusive = %v, %v; want false, nil", valid, err)
	}
	close(release)
	for {
		if valid, err := core.ReadAll(th, views, read); err != nil {
			t.Fatal(err)
		} else if valid {
			break
		}
		runtime.Gosched()
	}

	want := errors.New("boom")
	if r := recoverFrom(func() {
		_, _ = core.ReadAll(th, views, func([]core.Tx) error { panic(want) })
	}); r != want {
		t.Errorf("panic on a stable view: recovered %v, want the body's own value", r)
	}
	if r := recoverFrom(func() {
		_, _ = core.ReadAll(th, views, func(tx []core.Tx) error { tx[0].Store(0, 1); return nil })
	}); r == nil {
		t.Error("Store through a ReadAll handle did not panic")
	}
	if valid, err := core.ReadAll(th, views, func([]core.Tx) error { return want }); !valid || err != want {
		t.Errorf("fn's error: ReadAll = %v, %v; want true, %v", valid, err, want)
	}
	if err := rt.DestroyView(1); err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadAll(th, views, read); !errors.Is(err, core.ErrViewDestroyed) {
		t.Errorf("ReadAll on a destroyed view: %v", err)
	}
}

func recoverFrom(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}
