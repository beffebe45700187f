package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"votm/internal/faultinject"
	"votm/internal/memheap"
	"votm/internal/rac"
	"votm/internal/stm"
	"votm/internal/trace"
)

// ErrViewDestroyed is returned when using a destroyed view.
var ErrViewDestroyed = errors.New("core: view destroyed")

// View is one VOTM view: a region of shared memory backed by its own TM
// instance (private metadata) and guarded by its own RAC controller. Views
// never overlap by construction — each owns a separate heap.
type View struct {
	id    int
	rt    *Runtime
	heap  *stm.Heap
	alloc *memheap.Allocator
	engh  atomic.Pointer[engineHolder]
	ctl   *rac.Controller

	// ltx / ltxRO are the shared lock-mode transaction handles. A lockTx is
	// immutable after construction (heap pointer + readonly flag) and lock
	// mode is exclusive by the RAC interlock, so both handles can be shared
	// by every lock-mode/escalated/Exclusive run without allocating one per
	// execution.
	ltx   lockTx
	ltxRO lockTx

	destroyed atomic.Bool

	// wc brackets every write to the heap (see writeCount).
	wc writeCount
}

// writeCount is a view's NOrec-style writer count: every path that writes the
// heap — a lock-mode or escalated run that is not read-only, Exclusive, a
// writing AtomicAll, a TM attempt's Commit (the engines redo-log, so commit is
// their only heap write) — adds one to beg before its first write and one to
// end after its last, on every exit. beg == end means no write is under way,
// and an unchanged beg means none began: ReadAll's validation. The counters
// get a cache line of their own, so the bumps on every commit do not share
// one with the view's other fields.
type writeCount struct {
	_   [64]byte
	beg atomic.Uint64
	end atomic.Uint64
	_   [48]byte
}

// open and close bracket one write.
func (c *writeCount) open()  { c.beg.Add(1) }
func (c *writeCount) close() { c.end.Add(1) }

// engineHolder pairs an engine instance with its kind; it is swapped
// atomically by SwitchEngine, and thread descriptor caches key on the
// holder pointer so stale descriptors are never used against a new engine.
type engineHolder struct {
	kind EngineKind
	eng  stm.Engine
}

func newView(rt *Runtime, vid, sizeWords, quota int, kind EngineKind) *View {
	heap := stm.NewHeap(sizeWords)
	v := &View{
		id:    vid,
		rt:    rt,
		heap:  heap,
		alloc: memheap.New(sizeWords),
		ctl: rac.New(rac.Params{
			Threads:      rt.cfg.Threads,
			InitialQuota: quota,
			AdjustEvery:  rt.cfg.AdjustEvery,
			OnQuotaChange: func(from, to int, delta float64, rule rac.Rule) {
				rt.log.Add(trace.Decision{Loop: trace.Quota, Subject: vid, From: from, To: to, Delta: delta, Reason: string(rule)})
			},
		}),
	}
	v.ltx = lockTx{heap: heap}
	v.ltxRO = lockTx{heap: heap, readonly: true}
	v.engh.Store(&engineHolder{kind: kind, eng: rt.cfg.newEngine(kind, heap)})
	return v
}

// lockBody returns the shared lock-mode handle for the requested mode.
func (v *View) lockBody(readonly bool) *lockTx {
	if readonly {
		return &v.ltxRO
	}
	return &v.ltx
}

// ID returns the view ID (vid).
func (v *View) ID() int { return v.id }

func (v *View) engine() *engineHolder { return v.engh.Load() }

// EngineName returns the TM algorithm backing this view.
func (v *View) EngineName() string { return v.engine().eng.Name() }

// Engine returns the kind of the TM algorithm backing this view.
func (v *View) Engine() EngineKind { return v.engine().kind }

// SwitchEngine replaces the view's TM algorithm at runtime — the per-view
// adaptive-TM direction the paper names as future work (§IV-C, §V). The
// view is quiesced first: new admissions are suspended and the call blocks
// until all in-flight transactions have left, then the engine (and its
// fresh metadata) is swapped in over the same heap. Committed data is
// preserved — both engines redo-log, so the heap always holds committed
// state at quiescence.
//
// SwitchEngine requires admission control (it returns an error on a
// NoAdmission runtime, which has no quiescence mechanism).
func (v *View) SwitchEngine(ctx context.Context, kind EngineKind) error {
	if v.destroyed.Load() {
		return ErrViewDestroyed
	}
	if v.rt.cfg.NoAdmission {
		return errors.New("core: SwitchEngine requires admission control")
	}
	if kind != NOrec && kind != OrecEagerRedo && kind != TL2 {
		return fmt.Errorf("core: unknown engine %q", kind)
	}
	if v.engine().kind == kind {
		return nil
	}
	if err := v.ctl.PauseAndDrain(ctx); err != nil {
		return err
	}
	v.engh.Store(&engineHolder{kind: kind, eng: v.rt.cfg.newEngine(kind, v.heap)})
	v.ctl.Resume()
	return nil
}

// Exclusive quiesces the view and runs fn with exclusive, uninstrumented,
// irrevocable access (Q = 1 semantics, like an escalated transaction, but
// not accounted in the view's RAC statistics). It is the management
// primitive behind key migration in votmd: nothing else can be inside the
// view while fn runs. Writes performed before an error or panic remain.
func (v *View) Exclusive(ctx context.Context, fn func(Tx) error) error {
	if v.destroyed.Load() {
		return ErrViewDestroyed
	}
	if v.rt.cfg.NoAdmission {
		return errors.New("core: Exclusive requires admission control")
	}
	if err := v.ctl.PauseAndDrain(ctx); err != nil {
		return err
	}
	defer v.ctl.Resume()
	v.wc.open()
	defer v.wc.close()
	return fn(v.lockBody(false))
}

// Alloc implements malloc_block(vid, size): it reserves words words of the
// view's memory and returns the block's base address.
func (v *View) Alloc(words int) (stm.Addr, error) {
	if v.destroyed.Load() {
		return 0, ErrViewDestroyed
	}
	return v.alloc.Alloc(words)
}

// AllocBatch is malloc_block over a whole group: one block per entry of
// sizes, all carved out under a single allocator lock acquisition,
// appended to dst. All-or-nothing on failure.
func (v *View) AllocBatch(sizes []int, dst []stm.Addr) ([]stm.Addr, error) {
	if v.destroyed.Load() {
		return dst, ErrViewDestroyed
	}
	return v.alloc.AllocBatch(sizes, dst)
}

// Free implements free_block(vid, ptr).
func (v *View) Free(addr stm.Addr) error {
	if v.destroyed.Load() {
		return ErrViewDestroyed
	}
	return v.alloc.Free(addr)
}

// FreeBatch is free_block over a whole group's effect list: every block in
// addrs is released under a single allocator lock acquisition.
func (v *View) FreeBatch(addrs []stm.Addr) error {
	if len(addrs) == 0 {
		return nil
	}
	if v.destroyed.Load() {
		return ErrViewDestroyed
	}
	return v.alloc.FreeBatch(addrs)
}

// Brk implements brk_view(vid, size): it expands the view's memory by words
// words. Growth is safe concurrently with running transactions.
func (v *View) Brk(words int) error {
	if v.destroyed.Load() {
		return ErrViewDestroyed
	}
	if words < 0 {
		return fmt.Errorf("core: negative brk %d", words)
	}
	v.heap.Grow(words)
	v.alloc.Grow(words)
	return nil
}

// Size returns the view's current size in words.
func (v *View) Size() int { return v.heap.Len() }

// Quota returns the view's current admission quota Q.
func (v *View) Quota() int { return v.ctl.Quota() }

// SetQuota sets the view's admission quota manually.
func (v *View) SetQuota(q int) { v.ctl.SetQuota(q) }

// SettledQuota returns the quota with the largest makespan residence (Σ d/Q
// over the attempts accounted at it; rac.Controller.SettledQuota).
func (v *View) SettledQuota() int { return v.ctl.SettledQuota() }

// QuotaMoves returns how many times the view's quota changed, adaptively
// or by SetQuota.
func (v *View) QuotaMoves() int64 { return v.ctl.QuotaMoves() }

// Totals returns the view's cumulative transaction statistics.
func (v *View) Totals() rac.Totals { return v.ctl.Totals() }

// Controller exposes the RAC controller (tests and the harness).
func (v *View) Controller() *rac.Controller { return v.ctl }

// Heap exposes the underlying word heap (tests and lock-free inspection;
// reading it while transactions run sees committed state plus in-flight
// lock-mode writes).
func (v *View) Heap() *stm.Heap { return v.heap }

// AllocatedWords returns the words currently held by allocated blocks (leak
// checks in tests: a failed operation must hand back what it pre-allocated).
func (v *View) AllocatedWords() int { return v.alloc.InUse() }

// Atomic implements the acquire_view/release_view pair: it admits the
// calling thread under RAC, runs fn transactionally, and commits on return.
// If the commit fails or a conflict unwinds fn, the attempt is rolled back
// and fn re-executed after re-admission (the paper's release_view step 1).
//
// If fn returns a non-nil error the transaction is rolled back (in TM mode)
// and the error returned without retry. In lock mode (Q == 1) there is no
// rollback machinery — writes already performed by fn remain, matching the
// paper's lock-based fallback.
//
// ctx cancels waiting and retrying; a cancelled attempt returns ctx.Err().
func (v *View) Atomic(ctx context.Context, th *Thread, fn func(Tx) error) error {
	return v.atomic(ctx, th, fn, false)
}

// AtomicRead implements acquire_Rview/release_view: like Atomic but the
// transaction is read-only; Store panics.
func (v *View) AtomicRead(ctx context.Context, th *Thread, fn func(Tx) error) error {
	return v.atomic(ctx, th, fn, true)
}

// attemptOutcome classifies one TM-mode transaction attempt.
type attemptOutcome int

const (
	attemptCommitted attemptOutcome = iota
	attemptConflict                 // body unwound by a conflict or commit lost: retry
	attemptUserErr                  // fn returned an error: rolled back, no retry
)

func (v *View) atomic(ctx context.Context, th *Thread, fn func(Tx) error, readonly bool) error {
	if th == nil {
		return errors.New("core: nil thread handle")
	}
	conflicts := 0
	for {
		if v.destroyed.Load() {
			return ErrViewDestroyed
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		// Retry budget exhausted: escalate to an irrevocable exclusive
		// execution instead of another optimistic attempt, bounding
		// starvation under kill/steal contention management.
		if k := v.rt.cfg.MaxConflictRetries; k > 0 && conflicts >= k && !v.rt.cfg.NoAdmission {
			return v.runEscalated(ctx, th, fn, readonly)
		}

		mode := rac.ModeTM
		if v.rt.cfg.NoAdmission {
			// multi-TM / plain-TM baselines: no admission control at all.
		} else {
			var err error
			mode, err = v.ctl.Enter(ctx)
			if err != nil {
				if errors.Is(err, rac.ErrClosed) {
					return ErrViewDestroyed
				}
				return err
			}
		}
		start := time.Now()

		if mode == rac.ModeLock {
			return v.runLock(th, fn, readonly, start)
		}

		outcome, err := v.attemptTM(th, fn, readonly, mode, start)
		switch outcome {
		case attemptCommitted:
			return nil
		case attemptUserErr:
			return err
		default:
			conflicts++
			th.backoff(ctx, conflicts)
		}
	}
}

// attemptTM runs one optimistic attempt on the view's STM engine. It is
// panic-safe: a user panic unwinding out of the body (or out of the engine's
// commit path) rolls the transaction back and releases the admission slot
// before continuing to unwind, so a crashing body can never leak orec locks
// or shrink the view's effective quota.
func (v *View) attemptTM(th *Thread, fn func(Tx) error, readonly bool, mode rac.Mode, start time.Time) (attemptOutcome, error) {
	tx := th.tx(v)
	tx.Begin()
	settled := false
	defer func() {
		if !settled {
			// A panic is unwinding through us (injected fault at commit, or
			// an engine invariant violation): roll back, account the
			// attempt, release admission, and let the panic continue with
			// its original value and stack.
			tx.Abort()
			v.ctl.RecordPanic()
			v.exit(mode, rac.Aborted, start)
		}
	}()
	if h := v.rt.cfg.FaultHook; h != nil {
		h(faultinject.OpAdmit, th.id, 0)
	}
	var body Tx = tx
	if readonly {
		// Reuse the thread's read-only wrapper: a Thread is single-goroutine
		// by contract, so one cached roTx per thread suffices and the
		// steady-state AtomicRead path allocates nothing.
		th.ro.inner = tx
		body = &th.ro
	}
	var userErr error
	conflicted, up := stm.CatchBody(func() { userErr = fn(body) })
	switch {
	case up != nil:
		// User panic inside the body: roll back, release admission, then
		// re-raise the original panic value.
		tx.Abort()
		settled = true
		v.ctl.RecordPanic()
		v.exit(mode, rac.Aborted, start)
		up.Rethrow()
		return attemptConflict, nil // unreachable
	case conflicted:
		tx.Abort()
		settled = true
		v.exit(mode, rac.Aborted, start)
		return attemptConflict, nil
	case userErr != nil:
		tx.Abort()
		settled = true
		v.exit(mode, rac.Aborted, start)
		return attemptUserErr, userErr
	case v.commit(tx, readonly):
		settled = true
		v.exit(mode, rac.Committed, start)
		return attemptCommitted, nil
	default:
		settled = true
		v.exit(mode, rac.Aborted, start)
		return attemptConflict, nil
	}
}

// commit commits a TM attempt inside a write bracket unless it is read-only.
// The bracket closes on every exit, a panic out of the engine included.
func (v *View) commit(tx stm.Tx, readonly bool) bool {
	if readonly {
		return tx.Commit()
	}
	v.wc.open()
	defer v.wc.close()
	return tx.Commit()
}

// runLock executes fn in uninstrumented lock mode (admitted at Q == 1).
// There is no rollback machinery: writes performed before an error or a
// panic remain in the heap, matching the paper's lock-based fallback. The
// admission slot is always released — a panicking body keeps unwinding with
// its original value and stack after release, and an error is accounted as
// an aborted attempt so δ(Q) is not skewed by failed lock-mode runs.
func (v *View) runLock(th *Thread, fn func(Tx) error, readonly bool, start time.Time) (err error) {
	settled := false
	defer func() {
		if !settled {
			v.ctl.RecordPanic()
			v.exit(rac.ModeLock, rac.Aborted, start)
		}
	}()
	if h := v.rt.cfg.FaultHook; h != nil {
		h(faultinject.OpAdmit, th.id, 0)
	}
	err = v.runBody(fn, readonly)
	settled = true
	outcome := rac.Committed
	if err != nil {
		outcome = rac.Aborted
	}
	v.exit(rac.ModeLock, outcome, start)
	return err
}

// runBody runs fn on the view's lock-mode handle, inside a write bracket
// unless it is read-only.
func (v *View) runBody(fn func(Tx) error, readonly bool) error {
	if !readonly {
		v.wc.open()
		defer v.wc.close()
	}
	return fn(v.lockBody(readonly))
}

// runEscalated is the starvation escape hatch: it drains the view's
// admissions, runs fn exactly once with exclusive Q = 1 semantics
// (uninstrumented, irrevocable — it cannot conflict), then resumes
// admissions. Like lock mode there is no rollback: writes before an error
// or panic remain. The pause is always released, even if fn panics.
func (v *View) runEscalated(ctx context.Context, th *Thread, fn func(Tx) error, readonly bool) (err error) {
	if err := v.ctl.PauseAndDrain(ctx); err != nil {
		return err
	}
	start := time.Now()
	settled := false
	defer func() {
		if !settled {
			v.ctl.RecordPanic()
			v.ctl.RecordEscalated(rac.Aborted, time.Since(start))
		}
		v.ctl.Resume()
	}()
	if h := v.rt.cfg.FaultHook; h != nil {
		h(faultinject.OpAdmit, th.id, 0)
	}
	err = v.runBody(fn, readonly)
	settled = true
	outcome := rac.Committed
	if err != nil {
		outcome = rac.Aborted
	}
	v.ctl.RecordEscalated(outcome, time.Since(start))
	return err
}

func (v *View) exit(mode rac.Mode, outcome rac.Outcome, start time.Time) {
	d := time.Since(start)
	if v.rt.cfg.NoAdmission {
		v.ctl.Record(outcome, d)
		return
	}
	v.ctl.Exit(mode, outcome, d)
}
