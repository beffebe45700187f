// Multi-view execution: the escalation primitive behind cross-shard ATOMIC
// batches. A transaction whose footprint spans several views cannot run
// optimistically — each view's engine validates only its own metadata — so
// it runs the way an escalated single-view transaction does: pause every
// involved view, execute once with exclusive Q = 1 semantics, resume.
//
// Deadlock freedom is the caller's contract: every concurrent multi-view
// acquirer must pass its views in one global canonical order (votmd orders
// by wire shard id, then view ID). Within that discipline pauses nest like
// an ordered lock hierarchy and two coordinators can never cycle.
//
// A read that spans several views need not pause them: ReadAll reads
// optimistically and validates against each view's writer count (NOrec's
// single-counter validation, one counter per view), so it excludes nobody
// and a writer that overlaps it only costs it a retry.
package core

import (
	"context"
	"errors"
	"time"

	"votm/internal/faultinject"
	"votm/internal/rac"
	"votm/internal/stm"
)

// AtomicAll quiesces every view of views — in the given order, which all
// concurrent multi-view callers must share — and runs fn exactly once with
// one exclusive, uninstrumented, irrevocable access handle per view
// (txs[i] accesses views[i]). Like an escalated transaction it cannot
// conflict and has no rollback: writes performed before an error or panic
// remain, so fn must validate before its first write. Each view accounts
// the execution as an escalation (RecordEscalated), keeping δ(Q) honest
// about the serial time cross-view work imposes.
//
// The pauses are released in reverse order on every path, including a body
// panic. ctx cancels the drain; on error no view stays paused. txs belongs
// to th and is reused by its next AtomicAll: fn must not keep it.
func AtomicAll(ctx context.Context, th *Thread, views []*View, readonly bool, fn func(txs []Tx) error) (err error) {
	if th == nil {
		return errors.New("core: nil thread handle")
	}
	if len(views) == 0 {
		return errors.New("core: AtomicAll with no views")
	}
	rt := views[0].rt
	for _, v := range views {
		if v.rt != rt {
			return errors.New("core: AtomicAll views span runtimes")
		}
	}
	if rt.cfg.NoAdmission {
		return errors.New("core: AtomicAll requires admission control")
	}

	paused := 0
	defer func() {
		for i := paused - 1; i >= 0; i-- {
			views[i].ctl.Resume()
		}
	}()
	for _, v := range views {
		if v.destroyed.Load() {
			return ErrViewDestroyed
		}
		// On a PauseAndDrain error the pause was rolled back by the
		// controller itself; only the views paused so far are resumed.
		if perr := v.ctl.PauseAndDrain(ctx); perr != nil {
			return perr
		}
		paused++
	}

	start := time.Now()
	settled := false
	defer func() {
		// LIFO: accounting runs before the resume defer above.
		if !settled {
			for _, v := range views {
				v.ctl.RecordPanic()
				v.ctl.RecordEscalated(rac.Aborted, time.Since(start))
			}
		}
	}()
	if h := rt.cfg.FaultHook; h != nil {
		h(faultinject.OpAdmit, th.id, 0)
	}
	txs := th.all[:0]
	for _, v := range views {
		txs = append(txs, v.lockBody(readonly))
	}
	th.all = txs
	if !readonly {
		for _, v := range views {
			v.wc.open()
		}
		defer func() {
			for _, v := range views {
				v.wc.close()
			}
		}()
	}
	err = fn(txs)
	clear(txs)
	settled = true
	outcome := rac.Committed
	if err != nil {
		outcome = rac.Aborted
	}
	d := time.Since(start)
	for _, v := range views {
		v.ctl.RecordEscalated(outcome, d)
	}
	return err
}

// ReadAll runs fn once as an optimistic read of every view of views, with one
// read-only handle per view (txs[i] reads views[i]). It takes no admission
// slot and pauses nothing: it starts only when no view has a write under way
// (its writer count's beg == end), reads through plain atomic heap loads, and
// is valid iff no write began on any view before fn returned. ok reports
// that: ok = false means fn saw nothing it can rely on — the caller retries or
// takes another path — and its error, if any, is dropped. With ok, err is
// fn's.
//
// A handle re-checks its view's count every 64 loads and before each run of
// words it moves at once, so a torn state can neither loop fn forever nor
// size a copy from a torn length; a write that began ends fn by a panic
// ReadAll absorbs. Any panic out of fn while a count moved is a torn read's
// and becomes ok = false; one on views that stayed still is fn's own and
// propagates with its value. Store panics. A destroyed view answers
// ErrViewDestroyed with ok. txs belongs to th, as AtomicAll's do.
func ReadAll(th *Thread, views []*View, fn func(txs []Tx) error) (ok bool, err error) {
	if th == nil {
		return true, errors.New("core: nil thread handle")
	}
	if len(views) == 0 {
		return true, errors.New("core: ReadAll with no views")
	}
	rds := th.rd[:0]
	for _, v := range views {
		if v.destroyed.Load() {
			return true, ErrViewDestroyed
		}
		beg := v.wc.beg.Load()
		if v.wc.end.Load() != beg {
			return false, nil
		}
		rds = append(rds, readTx{heap: v.heap, wc: &v.wc, beg: beg})
	}
	th.rd = rds
	txs := th.all[:0]
	for i := range rds {
		txs = append(txs, &rds[i])
	}
	th.all = txs
	defer func() {
		clear(txs)
		if r := recover(); r != nil {
			if !stable(rds) {
				ok, err = false, nil
				return
			}
			panic(r)
		}
	}()
	err = fn(txs)
	if !stable(rds) {
		return false, nil
	}
	return true, err
}

// stable reports whether no write began on any of the handles' views since
// the handle was made.
func stable(rds []readTx) bool {
	for i := range rds {
		if rds[i].moved() {
			return false
		}
	}
	return true
}

// readTx is ReadAll's handle on one view: plain atomic loads, counted, and a
// writer-count check every readCheckEvery of them.
type readTx struct {
	heap  *stm.Heap
	wc    *writeCount
	beg   uint64 // wc.beg when the read started
	loads uint
}

// readCheckEvery is how many loads a readTx makes between checks of its
// view's writer count: the longest a read runs on after a write began.
const readCheckEvery = 64

// errTornRead is the panic that ends fn once a handle sees its view's count
// move; ReadAll absorbs it (the count moved, so the read is not stable).
var errTornRead = errors.New("core: a write began during ReadAll")

func (t *readTx) moved() bool { return t.wc.beg.Load() != t.beg }

func (t *readTx) check() {
	if t.moved() {
		panic(errTornRead)
	}
}

func (t *readTx) Load(a stm.Addr) uint64 {
	if t.loads++; t.loads%readCheckEvery == 0 {
		t.check()
	}
	return t.heap.Load(a)
}

func (t *readTx) Store(stm.Addr, uint64) { panic(errReadOnlyStore) }

// AppendWords checks first: the run's length was read from the heap, and a
// torn one must not size the copy.
func (t *readTx) AppendWords(dst []byte, a stm.Addr, n int) []byte {
	t.check()
	return t.heap.AppendWords(dst, a, n)
}

func (t *readTx) StoreWords(stm.Addr, []byte) { panic(errReadOnlyStore) }
