package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"votm/internal/memheap"
	"votm/internal/stm"
)

// Live view repartitioning (the executor layer of internal/viewmgr).
//
// A split carves word ranges out of a parent view and hands them to a fresh
// child view over an identity-mapped heap: address a in the parent is address
// a in the child, so pointers held by application code stay valid — only the
// view handle that must be used to reach them changes. The protocol is
// quiesce (RAC PauseAndDrain: admissions suspended, in-flight transactions
// drained), migrate (copy the committed words, move the allocator blocks),
// forward (publish an epoch-stamped forwarding table on the parent), release.
// Threads holding a stale view handle hit the forwarding table on their next
// access of a moved address and get a typed *MovedError; they re-resolve with
// Runtime.Locate and retry. A merge is the inverse, after which the retired
// child forwards its whole range back.
//
// Linearizability: every word has exactly one owning view at any instant, and
// ownership only changes while the old owner is quiesced — there is never a
// moment when two views both serve the same address, so the per-word history
// remains a single total order.

// ErrBadRange is returned for empty, inverted, overlapping, or out-of-bounds
// split ranges, and for ranges that overlap words already moved away.
var ErrBadRange = errors.New("core: invalid split range")

// ErrNotSplitFamily is returned by MergeViews when dst does not forward any
// range to src (the views are not parent and split child).
var ErrNotSplitFamily = errors.New("core: views are not a split family")

// AddrRange is a half-open range [Lo, Hi) of word addresses.
type AddrRange struct {
	Lo, Hi stm.Addr
}

// MovedError reports an access through a stale view handle to an address
// whose ownership was transferred by Split or MergeViews. The failed
// transaction was rolled back; retry it against Runtime.Locate(View, Addr).
type MovedError struct {
	View    int      // the view the access was attempted on
	NewView int      // the view the address was forwarded to
	Addr    stm.Addr // the address that moved
	Epoch   uint64   // forwarding epoch of View at the time of the access
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("core: address %d moved from view %d to view %d (epoch %d)", e.Addr, e.View, e.NewView, e.Epoch)
}

// movedPanic unwinds a transaction body when the forwarding guard trips; the
// retry loop converts it into the typed *MovedError instead of re-raising.
type movedPanic struct{ err *MovedError }

// fwdRange is one forwarded range [lo, hi) → view dst. A down-link (up
// false) names a child the range was split to; an up-link sends a split
// child's accesses to words it was never given (or a retired child's, to all
// of them) back to the view they came from. MergeViews walks down-links only.
type fwdRange struct {
	lo, hi stm.Addr
	dst    int
	up     bool
}

// fwdTable is an immutable, epoch-stamped forwarding table. A view's table
// is replaced wholesale (copy-on-write) while the view is quiesced and read
// with a single atomic load per transaction attempt.
type fwdTable struct {
	epoch  uint64
	ranges []fwdRange // sorted by lo, non-overlapping
}

// lookup returns the destination view for a moved address.
func (t *fwdTable) lookup(a stm.Addr) (int, bool) {
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].hi > a })
	if i < len(t.ranges) && t.ranges[i].lo <= a {
		return t.ranges[i].dst, true
	}
	return 0, false
}

// fwdGuardTx wraps a transaction body's Tx and raises movedPanic on any
// access to a forwarded address. It is installed only when the view has a
// forwarding table, so never-split views pay one nil atomic load per attempt
// and nothing per access.
type fwdGuardTx struct {
	inner Tx
	ft    *fwdTable
	view  int
}

func (g *fwdGuardTx) check(a stm.Addr) {
	if dst, ok := g.ft.lookup(a); ok {
		panic(movedPanic{&MovedError{View: g.view, NewView: dst, Addr: a, Epoch: g.ft.epoch}})
	}
}

func (g *fwdGuardTx) Load(a stm.Addr) uint64 {
	g.check(a)
	return g.inner.Load(a)
}

func (g *fwdGuardTx) Store(a stm.Addr, val uint64) {
	g.check(a)
	g.inner.Store(a, val)
}

// guardBody wraps body with the view's forwarding guard if one is installed.
func (v *View) guardBody(body Tx) Tx {
	if ft := v.fwd.Load(); ft != nil {
		return &fwdGuardTx{inner: body, ft: ft, view: v.id}
	}
	return body
}

// callGuarded invokes fn(tx), converting a forwarding-guard panic into its
// typed error. Every other panic keeps unwinding.
func callGuarded(fn func(Tx) error, tx Tx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if mp, ok := r.(movedPanic); ok {
				err = mp.err
				return
			}
			panic(r)
		}
	}()
	return fn(tx)
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
	return callGuarded(fn, v.guardBody(v.lockBody(false)))
}

// normalizeAddrRanges validates and canonicalizes split ranges against the
// heap length: sorted, non-overlapping, adjacent runs merged.
func normalizeAddrRanges(ranges []AddrRange, heapLen int) ([]AddrRange, error) {
	if len(ranges) == 0 {
		return nil, fmt.Errorf("%w: no ranges", ErrBadRange)
	}
	out := make([]AddrRange, len(ranges))
	copy(out, ranges)
	for _, r := range out {
		if r.Lo >= r.Hi || int(r.Hi) > heapLen {
			return nil, fmt.Errorf("%w: [%d,%d) in heap of %d words", ErrBadRange, r.Lo, r.Hi, heapLen)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.Lo < last.Hi {
			return nil, fmt.Errorf("%w: overlapping [%d,%d) and [%d,%d)", ErrBadRange, last.Lo, last.Hi, r.Lo, r.Hi)
		}
		if r.Lo == last.Hi {
			last.Hi = r.Hi
			continue
		}
		merged = append(merged, r)
	}
	return merged, nil
}

func toMemRanges(rs []AddrRange) []memheap.Range {
	out := make([]memheap.Range, len(rs))
	for i, r := range rs {
		out[i] = memheap.Range{Lo: int(r.Lo), Hi: int(r.Hi)}
	}
	return out
}

// Split carves ranges out of this view into a new child view childID with
// the given engine ("" inherits the parent's) and quota (< 1 = adaptive).
// The child's heap is identity-mapped: every moved word keeps its address.
// The parent is quiesced for the duration of the move; afterwards accesses
// to moved addresses through the parent return *MovedError, and so do
// accesses through the child to words of the parent's heap outside ranges
// (a handle Locate returned for one address must not serve another from a
// private copy).
//
// A range must not cut through an allocated block (blocks move whole), and
// must not overlap words already moved by an earlier split.
func (v *View) Split(ctx context.Context, childID int, ranges []AddrRange, engine EngineKind, quota int) (*View, error) {
	if v.destroyed.Load() {
		return nil, ErrViewDestroyed
	}
	if v.rt.cfg.NoAdmission {
		return nil, errors.New("core: Split requires admission control")
	}
	if engine == "" {
		engine = v.engine().kind
	}
	rs, err := normalizeAddrRanges(ranges, v.heap.Len())
	if err != nil {
		return nil, err
	}

	child, err := v.rt.CreateViewWithEngine(childID, 0, quota, engine)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*View, error) {
		v.rt.DestroyView(childID)
		return nil, err
	}

	// Quiesce ancestor-first (the same order MergeViews uses, so concurrent
	// repartitions of a chain cannot deadlock): parent, then the child —
	// which has no traffic yet, so its pause is immediate and keeps it
	// effectively invisible until fully populated.
	if err := v.ctl.PauseAndDrain(ctx); err != nil {
		return fail(err)
	}
	if err := child.ctl.PauseAndDrain(ctx); err != nil {
		v.ctl.Resume()
		return fail(err)
	}
	unpause := func() {
		child.ctl.Resume()
		v.ctl.Resume()
	}

	// Re-validate against state that may have changed before the pause: the
	// heap can have grown (Brk is admission-free) and an earlier split may
	// have moved overlapping ranges away.
	if int(rs[len(rs)-1].Hi) > v.heap.Len() {
		unpause()
		return fail(fmt.Errorf("%w: beyond heap length %d", ErrBadRange, v.heap.Len()))
	}
	old := v.fwd.Load()
	if old != nil {
		for _, r := range rs {
			for _, f := range old.ranges {
				if r.Lo < f.hi && f.lo < r.Hi {
					unpause()
					return fail(fmt.Errorf("%w: [%d,%d) already moved to view %d", ErrBadRange, r.Lo, r.Hi, f.dst))
				}
			}
		}
	}

	// Shape the child: identity-mapped heap of the parent's length, with
	// only the moved ranges allocatable.
	n := v.heap.Len()
	child.heap.Grow(n - child.heap.Len())
	child.alloc.Grow(n - child.alloc.Limit())
	if err := child.alloc.Restrict(toMemRanges(rs)); err != nil {
		unpause()
		return fail(err)
	}

	// Move the allocator blocks, then copy the committed words. Evict
	// validates everything before mutating, so a straddling block fails the
	// split with the parent untouched.
	blocks, err := v.alloc.Evict(toMemRanges(rs))
	if err != nil {
		unpause()
		return fail(err)
	}
	for _, b := range blocks {
		if err := child.alloc.Adopt(b.Base, b.Size); err != nil {
			// Unreachable by construction (blocks lie inside rs); restore
			// the parent rather than leak the words.
			v.alloc.Release(toMemRanges(rs))
			for _, rb := range blocks {
				v.alloc.Adopt(rb.Base, rb.Size)
			}
			unpause()
			return fail(err)
		}
	}
	for _, r := range rs {
		for a := r.Lo; a < r.Hi; a++ {
			child.heap.Store(a, v.heap.Load(a))
		}
	}

	// Guard the child's complement with up-links to the parent, then publish
	// the parent's forwarding epoch and release.
	up := &fwdTable{epoch: 1}
	lo := stm.Addr(0)
	for _, r := range rs {
		if lo < r.Lo {
			up.ranges = append(up.ranges, fwdRange{lo: lo, hi: r.Lo, dst: v.id, up: true})
		}
		lo = r.Hi
	}
	if lo < stm.Addr(n) {
		up.ranges = append(up.ranges, fwdRange{lo: lo, hi: stm.Addr(n), dst: v.id, up: true})
	}
	if len(up.ranges) > 0 {
		child.fwd.Store(up)
	}
	nt := &fwdTable{epoch: 1}
	if old != nil {
		nt.epoch = old.epoch + 1
		nt.ranges = append(nt.ranges, old.ranges...)
	}
	for _, r := range rs {
		nt.ranges = append(nt.ranges, fwdRange{lo: r.Lo, hi: r.Hi, dst: childID})
	}
	sort.Slice(nt.ranges, func(i, j int) bool { return nt.ranges[i].lo < nt.ranges[j].lo })
	v.fwd.Store(nt)
	unpause()
	return child, nil
}

// MergeViews merges split child srcID back into its parent dstID: the words
// the child still owns are copied back, the parent stops forwarding them,
// and the child is retired — it keeps answering accesses with *MovedError
// forwarding its whole range to the parent, so stale handles re-resolve
// instead of crashing. Destroy the retired view once no handles remain.
//
// If the child itself split further, the grandchild's ranges are re-pointed
// from the parent directly (the forwarding chain is collapsed by one link).
func (r *Runtime) MergeViews(ctx context.Context, dstID, srcID int) error {
	dst, err := r.View(dstID)
	if err != nil {
		return err
	}
	src, err := r.View(srcID)
	if err != nil {
		return err
	}
	if r.cfg.NoAdmission {
		return errors.New("core: MergeViews requires admission control")
	}

	// Quiesce parent then child — the same ancestor-first order Split uses,
	// so concurrent repartitions of a chain cannot deadlock.
	if err := dst.ctl.PauseAndDrain(ctx); err != nil {
		return err
	}
	if err := src.ctl.PauseAndDrain(ctx); err != nil {
		dst.ctl.Resume()
		return err
	}
	defer func() {
		src.ctl.Resume()
		dst.ctl.Resume()
	}()

	// Validate under quiescence: dst must forward at least one range down to
	// src (a child's up-links name its parent, which is not its to merge).
	dt := dst.fwd.Load()
	if dt == nil {
		return fmt.Errorf("%w: view %d forwards nothing", ErrNotSplitFamily, dstID)
	}
	var toSrc []AddrRange
	for _, f := range dt.ranges {
		if f.dst == srcID && !f.up {
			toSrc = append(toSrc, AddrRange{Lo: f.lo, Hi: f.hi})
		}
	}
	if len(toSrc) == 0 {
		return fmt.Errorf("%w: view %d does not forward to view %d", ErrNotSplitFamily, dstID, srcID)
	}

	// Words src forwarded onward (it split further) stay where they are; the
	// parent's table will point at them directly.
	st := src.fwd.Load()
	var owned []AddrRange // sub-ranges src still serves, to copy back
	var onward []fwdRange // sub-ranges to re-point from dst
	for _, rg := range toSrc {
		lo := rg.Lo
		if st != nil {
			for _, f := range st.ranges {
				flo, fhi := max(f.lo, rg.Lo), min(f.hi, rg.Hi)
				if flo >= fhi {
					continue
				}
				if lo < flo {
					owned = append(owned, AddrRange{Lo: lo, Hi: flo})
				}
				onward = append(onward, fwdRange{lo: flo, hi: fhi, dst: f.dst})
				lo = fhi
			}
		}
		if lo < rg.Hi {
			owned = append(owned, AddrRange{Lo: lo, Hi: rg.Hi})
		}
	}

	// Move allocator state and copy words for the parts src still owns.
	if len(owned) > 0 {
		blocks, err := src.alloc.Evict(toMemRanges(owned))
		if err != nil {
			return err
		}
		if err := dst.alloc.Release(toMemRanges(owned)); err != nil {
			return err
		}
		for _, b := range blocks {
			if err := dst.alloc.Adopt(b.Base, b.Size); err != nil {
				return err
			}
		}
		for _, rg := range owned {
			for a := rg.Lo; a < rg.Hi; a++ {
				dst.heap.Store(a, src.heap.Load(a))
			}
		}
	}

	// New parent table: everything except the merged ranges, plus re-pointed
	// grandchild ranges. Nil when empty — the guard uninstalls entirely.
	nt := &fwdTable{epoch: dt.epoch + 1}
	for _, f := range dt.ranges {
		if f.dst != srcID {
			nt.ranges = append(nt.ranges, f)
		}
	}
	nt.ranges = append(nt.ranges, onward...)
	sort.Slice(nt.ranges, func(i, j int) bool { return nt.ranges[i].lo < nt.ranges[j].lo })
	if len(nt.ranges) == 0 {
		dst.fwd.Store(nil)
	} else {
		dst.fwd.Store(nt)
	}

	// Retire src: forward its whole range back to the parent.
	var srcEpoch uint64 = 1
	if st != nil {
		srcEpoch = st.epoch + 1
	}
	src.fwd.Store(&fwdTable{
		epoch:  srcEpoch,
		ranges: []fwdRange{{lo: 0, hi: stm.Addr(src.heap.Len()), dst: dstID, up: true}},
	})
	return nil
}

// Locate follows forwarding chains from view vid and returns the ID of the
// view currently owning addr. Threads use it to refresh a stale view handle
// after a *MovedError.
func (r *Runtime) Locate(vid int, addr stm.Addr) (int, error) {
	v, err := r.View(vid)
	if err != nil {
		return 0, err
	}
	for depth := 0; depth < 64; depth++ {
		ft := v.fwd.Load()
		if ft == nil {
			return v.id, nil
		}
		dst, ok := ft.lookup(addr)
		if !ok {
			return v.id, nil
		}
		v, err = r.View(dst)
		if err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("core: forwarding chain from view %d for address %d too deep", vid, addr)
}
