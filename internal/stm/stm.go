// Package stm defines the word-based software transactional memory substrate
// shared by all TM algorithms in this repository.
//
// Transactional data lives in a Heap: a growable array of 64-bit words
// addressed by Addr (a word index). Each VOTM view owns one Heap and one
// Engine instance, so per-engine metadata (NOrec's global sequence lock,
// OrecEagerRedo's ownership-record table) is private to the view. That
// per-view metadata isolation is the mechanism behind the paper's multi-view
// performance gains.
//
// Engines signal conflicts by panicking with a private sentinel; the caller
// (internal/core) recovers it via Catch and drives the abort/retry loop. User
// transaction bodies never observe the panic.
package stm

import (
	"fmt"
	"runtime/debug"
)

// Addr is the address of a 64-bit word within a view's Heap.
type Addr uint32

// Engine is a software TM algorithm instance bound to a single Heap.
// One Engine is created per view; its metadata is not shared across views.
type Engine interface {
	// Name reports the algorithm name, e.g. "NOrec" or "OrecEagerRedo".
	Name() string
	// NewTx creates a reusable transaction descriptor for one thread.
	// A descriptor must only ever be used by a single goroutine, but many
	// descriptors may run concurrently against the same Engine.
	NewTx(threadID int) Tx
}

// Tx is a per-thread transaction descriptor. The call protocol is:
//
//	tx.Begin()
//	... Load/Store (may panic with the conflict sentinel) ...
//	ok := tx.Commit()   // false: conflict at commit time, already rolled back
//
// or, if a conflict panic was caught mid-transaction:
//
//	tx.Abort()
//
// After Commit or Abort the descriptor is reset and may Begin again.
type Tx interface {
	// Begin starts a new transaction attempt on this descriptor.
	Begin()
	// Load returns the transactional value of the word at a. It panics with
	// the conflict sentinel if a conflict is detected.
	Load(a Addr) uint64
	// Store buffers a transactional write of v to the word at a. It panics
	// with the conflict sentinel if a conflict is detected.
	Store(a Addr, v uint64)
	// Commit attempts to make the transaction's writes visible atomically.
	// It returns false if the transaction lost a conflict at commit time;
	// in that case the transaction has already been rolled back.
	Commit() bool
	// Abort rolls back the transaction after a conflict panic was caught.
	Abort()
	// Stats returns cumulative attempt statistics for this descriptor.
	Stats() TxStats
}

// TxPooler is implemented by engines that pool transaction descriptors.
// ReleaseTx returns a descriptor obtained from NewTx to the engine's free
// list after fully resetting it (write/read logs, ownership, statistics), so
// a later NewTx can hand it out again without allocating. The caller must
// guarantee the descriptor is dead (its last attempt committed or aborted)
// and must not use it after release. Releasing a descriptor the engine did
// not create, or a live one, is a programming error and panics. Descriptors
// wrapped by fault injection (faultinject.WrapTx) are accepted: engines
// unwrap them before pooling.
type TxPooler interface {
	ReleaseTx(Tx)
}

// TxStats counts transaction outcomes on one descriptor.
type TxStats struct {
	Commits int64 // successful commits
	Aborts  int64 // aborted attempts (conflict panics and failed commits)
}

// conflictSignal is the private panic sentinel used to unwind a doomed
// transaction. It intentionally does not implement error: it must never be
// treated as an ordinary error value.
type conflictSignal struct{ reason string }

func (c conflictSignal) String() string { return "stm: conflict (" + c.reason + ")" }

// Throw unwinds the current transaction with a conflict. reason is kept for
// diagnostics only; it must be a constant string (no allocation on hot path).
func Throw(reason string) {
	panic(conflictSignal{reason: reason})
}

// Catch runs fn and reports whether it completed (true) or unwound with a
// conflict sentinel (false). Panics that are not conflict sentinels are
// re-raised untouched.
func Catch(fn func()) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(conflictSignal); ok {
				completed = false
				return
			}
			panic(r)
		}
	}()
	fn()
	return true
}

// UserPanic captures a panic raised by user code inside a transaction body —
// any panic that is not the engines' conflict sentinel. The runtime uses it
// to roll the transaction back and release admission before re-raising the
// original value, so a crashing body can never wedge a view.
type UserPanic struct {
	Value any    // the original panic value, re-raised by Rethrow
	Stack []byte // stack at the panic site, captured before unwinding
}

func (p *UserPanic) Error() string {
	return fmt.Sprintf("stm: user panic in transaction body: %v", p.Value)
}

// Unwrap exposes the panic value when it is an error (errors.Is/As support).
func (p *UserPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Rethrow re-raises the captured panic with its original value, after the
// caller has finished cleanup. The stack at the original panic site remains
// available in Stack for logging before the re-raise.
func (p *UserPanic) Rethrow() {
	panic(p.Value)
}

// CatchBody is Catch extended to distinguish the conflict sentinel from user
// panics. It runs a transaction body and classifies how it finished:
//
//	fn returned:        (false, nil)
//	conflict sentinel:  (true, nil)   — abort and retry
//	user panic:         (false, up)   — clean up, then up.Rethrow()
//
// The user panic's stack is captured at the panic site (the deferred
// classifier still sees the panicking frames), so diagnostics survive the
// abort path.
func CatchBody(fn func()) (conflict bool, up *UserPanic) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(conflictSignal); ok {
				conflict = true
				return
			}
			up = &UserPanic{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return false, nil
}

// BoundsError is returned (via panic conversion in core) when an address is
// outside the heap.
type BoundsError struct {
	Addr Addr
	Len  int
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("stm: address %d out of heap bounds (len %d words)", e.Addr, e.Len)
}
