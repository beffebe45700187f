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
package core

import (
	"context"
	"errors"
	"time"

	"votm/internal/faultinject"
	"votm/internal/rac"
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
