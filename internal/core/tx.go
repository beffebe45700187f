package core

import (
	"votm/internal/stm"
)

// Tx is the transactional access interface passed to Atomic bodies. The
// concrete type depends on the admission mode: an instrumented STM
// transaction in TM mode, or a direct-access transaction in lock mode
// (Q == 1), which has zero instrumentation overhead — the optimization the
// paper attributes its Q = 1 wins to.
type Tx interface {
	// Load returns the transactional value of the word at a.
	Load(a stm.Addr) uint64
	// Store writes v to the word at a transactionally. It panics on a
	// read-only transaction.
	Store(a stm.Addr, v uint64)
}

// lockTx is the uninstrumented Q == 1 fast path. The RAC lock-mode
// interlock guarantees exclusivity, so plain atomic heap access is both
// race-free and isolated.
type lockTx struct {
	heap     *stm.Heap
	readonly bool
}

// errReadOnlyStore is the panic value of a write through a read-only handle.
const errReadOnlyStore = "votm: Store inside a read-only (AtomicRead) transaction"

func (t *lockTx) Load(a stm.Addr) uint64 { return t.heap.Load(a) }

func (t *lockTx) Store(a stm.Addr, v uint64) {
	if t.readonly {
		panic(errReadOnlyStore)
	}
	t.heap.Store(a, v)
}

// AppendWords and StoreWords move a run of whole words (package enc's aligned
// part); every wrapper and every TM engine moves word by word.
func (t *lockTx) AppendWords(dst []byte, a stm.Addr, n int) []byte {
	return t.heap.AppendWords(dst, a, n)
}

func (t *lockTx) StoreWords(a stm.Addr, src []byte) {
	if t.readonly {
		panic(errReadOnlyStore)
	}
	t.heap.StoreWords(a, src)
}

// roTx enforces read-only semantics over an instrumented transaction.
type roTx struct {
	inner stm.Tx
}

func (t *roTx) Load(a stm.Addr) uint64 { return t.inner.Load(a) }

func (t *roTx) Store(stm.Addr, uint64) { panic(errReadOnlyStore) }
