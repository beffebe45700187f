package core

import (
	"context"
	"runtime"

	"votm/internal/stm"
)

// Thread is a per-goroutine handle. It caches one transaction descriptor per
// view so descriptors (and their logs) are reused across attempts. A Thread
// must not be shared between goroutines.
type Thread struct {
	id  int
	txs map[*View]txCacheEntry
	rng uint64 // cheap LCG state for contention backoff
	// ro is the reusable read-only wrapper handed to AtomicRead bodies; a
	// Thread runs one transaction at a time, so one wrapper suffices and the
	// read path stays allocation-free.
	ro roTx
	// all is AtomicAll's and ReadAll's handle slice, rd ReadAll's handles,
	// reused for the same reason.
	all []Tx
	rd  []readTx
}

type txCacheEntry struct {
	holder *engineHolder // engine the descriptor belongs to
	tx     stm.Tx
}

// ID returns the thread's runtime-unique ID.
func (t *Thread) ID() int { return t.id }

// tx returns the cached descriptor for v's current engine, creating (or
// recycling from the engine's pool) a new one on first use or after a
// SwitchEngine. The stale descriptor of a switched-out engine is returned to
// that engine's pool — it is dead by construction, because SwitchEngine
// quiesces the view before swapping the holder.
func (t *Thread) tx(v *View) stm.Tx {
	h := v.engine()
	if e, ok := t.txs[v]; ok {
		if e.holder == h {
			return e.tx
		}
		release(e.holder, e.tx)
	}
	tx := h.eng.NewTx(t.id)
	t.txs[v] = txCacheEntry{holder: h, tx: tx}
	return tx
}

// release returns a dead descriptor to its engine's pool, if the engine
// pools descriptors.
func release(h *engineHolder, tx stm.Tx) {
	if p, ok := h.eng.(stm.TxPooler); ok {
		p.ReleaseTx(tx)
	}
}

// Release returns every cached transaction descriptor to its engine's pool
// and empties the cache. Call it when the goroutine is done using the
// runtime (worker teardown); the Thread itself remains usable — the next
// Atomic simply draws a recycled descriptor. All of the thread's
// transactions must have finished: releasing a live descriptor panics.
func (t *Thread) Release() {
	for v, e := range t.txs {
		release(e.holder, e.tx)
		delete(t.txs, v)
	}
}

// backoff performs randomized exponential backoff after the attempt-th
// consecutive conflict abort (1-based). Deterministic transaction bodies
// otherwise replay identical access sets in lockstep, and symmetric
// kill/steal cycles can starve forever; randomization breaks the symmetry
// exactly like the backoff contention managers in RSTM. Yield-based waiting
// keeps it effective when conflicting goroutines share a core.
//
// The wait is context-aware: a cancelled ctx returns promptly from deep
// backoff instead of yielding out the full window, so a cancelled Atomic is
// never stuck behind its own backoff.
func (t *Thread) backoff(ctx context.Context, attempt int) {
	if attempt < 1 {
		return
	}
	if attempt > 8 {
		attempt = 8
	}
	t.rng = t.rng*6364136223846793005 + 1442695040888963407 + uint64(t.id)
	window := uint64(1) << uint(attempt) // 2 … 256
	n := (t.rng >> 33) % window
	for i := uint64(0); i < n; i++ {
		if i&7 == 0 && ctx.Err() != nil {
			return
		}
		runtime.Gosched()
	}
}
