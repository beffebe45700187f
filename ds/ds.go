// Package ds exposes VOTM's transactional data structures: a sorted linked
// list (the paper's Figures 1–2), a bounded FIFO queue, a chained hash
// map, and an ordered skip list, all living inside a view's word heap and
// manipulated through transactions.
//
// Memory discipline (matching the paper, where malloc_block is not
// transactional): node blocks are allocated with the view allocator
// *outside* transactions, linked/unlinked *inside* transactions, and
// removal methods return the unlinked node's reference so the caller frees
// it after the commit. This keeps retried transaction bodies side-effect
// free.
//
//	l, _ := ds.NewList(view)
//	n, _ := l.NewNode(42)                    // outside the transaction
//	_ = view.Atomic(ctx, th, func(tx votm.Tx) error {
//		l.Insert(tx, n, 42)                  // inside the transaction
//		return nil
//	})
package ds

import (
	"votm"
	"votm/internal/stmds"
)

// NilRef is the in-heap null reference.
const NilRef = stmds.NilRef

// Ref is a word address stored inside view memory (a view-space pointer).
type Ref = stmds.Ref

// List is a sorted singly-linked list in view memory.
type List = stmds.List

// Queue is a bounded FIFO ring buffer in view memory.
type Queue = stmds.Queue

// HashMap is a fixed-bucket chained hash map in view memory.
type HashMap = stmds.HashMap

// SkipList is a transactional ordered map in view memory with deterministic
// tower heights and in-order iteration. A hash directory threaded through its
// nodes answers Get and Delete's lookup in a few loads; it grows through
// NewDir (allocate outside the transaction) and GrowDir (install inside it).
type SkipList = stmds.SkipList

// NewList allocates a list header in v.
func NewList(v *votm.View) (*List, error) { return stmds.NewList(v) }

// NewQueue allocates a queue with the given capacity in v.
func NewQueue(v *votm.View, capacity int) (*Queue, error) {
	return stmds.NewQueue(v, capacity)
}

// NewHashMap allocates a hash map with nbuckets chains in v.
func NewHashMap(v *votm.View, nbuckets int) (*HashMap, error) {
	return stmds.NewHashMap(v, nbuckets)
}

// NewSkipList allocates a skip list in v. maxLevel <= 0 selects the
// default maximum tower height. The first hash directory is allocated with
// the header, about one word per 16 of v's free words and at least 16, so a
// view without room for the header and 16 words returns ErrOutOfMemory.
func NewSkipList(v *votm.View, maxLevel int) (*SkipList, error) {
	return stmds.NewSkipList(v, maxLevel)
}
