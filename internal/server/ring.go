// Bounded per-shard task queue: a lock-free MPSC ring (ringQueue).
// Connection read loops are the producers, each pushing a run of tasks at a
// time; the shard's workers take turns as the single draining consumer: each
// blocks in Pop for one task, then takes what else is queued with PopBatch.
// PushBatch never blocks (what a full queue refuses is the BUSY backpressure
// signal — also how a full completion list, group.go, reaches the client);
// Pop blocks until a task arrives or the queue is closed AND drained. Close
// may not race an in-flight PushBatch — the server guarantees it by closing
// queues only after every connection hung up (reqWG), and a reader publishes
// what it staged before it hangs up.
// The chan-based queue the ring replaced lives on in ring_test.go as the
// differential-testing oracle.
package server

import (
	"sync"
	"sync/atomic"
)

// cacheLine keeps the ring's producer and consumer cursors on separate
// cache lines so producer CAS traffic never invalidates the consumer's.
const cacheLine = 64

// ringSlot is one ring cell. seq is the slot's state in Vyukov's bounded
// queue protocol: seq == pos means free for the producer claiming position
// pos, seq == pos+1 means the task is published for the consumer, and after
// consumption seq = pos+size frees it for the producer one lap ahead.
type ringSlot struct {
	seq atomic.Uint64
	t   task
}

// ringQueue is a bounded MPSC ring. Producers claim a run of slots with one
// CAS on tail and publish via the slots' sequence numbers — no lock and no
// consumer wakeup while a consumer is running (the wake channel is touched
// only when a consumer has announced it is parked). The consumer side is
// serialized by consMu: whichever worker holds it drains an entire batch
// with per-slot sequence reads and ONE head advance, then releases.
type ringQueue struct {
	_    [cacheLine]byte
	tail atomic.Uint64 // next position a producer claims
	_    [cacheLine - 8]byte
	head atomic.Uint64 // next position the consumer reads
	_    [cacheLine - 8]byte

	mask  uint64
	slots []ringSlot

	// waiting is nonzero while a consumer is parked on wake. Producers
	// check it after publishing (both sides use sequentially consistent
	// atomics, so the consumer's announce-then-recheck cannot miss a
	// publish-then-check producer: one of the two always sees the other).
	waiting  atomic.Int32
	closed   atomic.Bool
	wake     chan struct{}
	closedCh chan struct{}

	// consMu serializes consumers (a shard runs WorkersPerShard of them).
	// A blocking Pop parks on wake while KEEPING it: rival consumers queue
	// on the mutex, so at most one parker exists and the waiting flag has a
	// single owner — no lost wakeup with N workers. PopBatch uses TryLock:
	// its caller already holds a task and must run it, not queue behind a
	// parked rival.
	consMu sync.Mutex
}

func newRingQueue(depth int) *ringQueue {
	// Minimum 2: with a single slot the protocol's "free for position pos"
	// (seq == pos) and "published for the consumer" (seq == head+1) states
	// collide and a producer can overwrite an unconsumed task.
	size := 2
	for size < depth {
		size <<= 1
	}
	q := &ringQueue{
		mask:     uint64(size - 1),
		slots:    make([]ringSlot, size),
		wake:     make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap is the queue bound (depth rounded up to a power of two).
func (q *ringQueue) Cap() int { return len(q.slots) }

// Len is approximate: tail and head are read independently, so a racing
// push or pop can skew it by a few — fine for its consumers (admission
// threshold, STATS).
func (q *ringQueue) Len() int {
	n := int64(q.tail.Load()) - int64(q.head.Load())
	if n < 0 {
		n = 0
	}
	if n > int64(len(q.slots)) {
		n = int64(len(q.slots))
	}
	return int(n)
}

// PushBatch enqueues the longest prefix of ts the queue has room for and
// returns its length: 0 when the queue is full or closed. The prefix is
// claimed with one CAS on tail, then filled and published slot by slot, and a
// parked consumer is woken once.
func (q *ringQueue) PushBatch(ts []task) int {
	if len(ts) == 0 || q.closed.Load() {
		return 0
	}
	for {
		pos := q.tail.Load()
		// Slot pos+n is free for this lap while its seq reads pos+n; a smaller
		// seq is the unconsumed task one lap back (the ring is full there), a
		// larger one a rival that claimed past pos (the CAS below fails).
		n := 0
		for n < len(ts) && q.slots[(pos+uint64(n))&q.mask].seq.Load() == pos+uint64(n) {
			n++
		}
		if n == 0 {
			if q.slots[pos&q.mask].seq.Load() < pos {
				return 0
			}
			continue
		}
		if !q.tail.CompareAndSwap(pos, pos+uint64(n)) {
			continue
		}
		for i, t := range ts[:n] {
			slot := &q.slots[(pos+uint64(i))&q.mask]
			slot.t = t
			slot.seq.Store(pos + uint64(i) + 1)
		}
		if q.waiting.Load() != 0 {
			select {
			case q.wake <- struct{}{}:
			default:
			}
		}
		return n
	}
}

// popLocked dequeues up to max tasks into dst. Caller holds consMu. Slots
// are freed for producers as they are read (per-slot seq store), but the
// drain is claimed with a single head advance at the end.
func (q *ringQueue) popLocked(dst []task, max int) []task {
	pos := q.head.Load()
	size := uint64(len(q.slots))
	n := uint64(0)
	for len(dst) < max {
		slot := &q.slots[(pos+n)&q.mask]
		if slot.seq.Load() != pos+n+1 {
			break
		}
		dst = append(dst, slot.t)
		slot.t = task{}
		slot.seq.Store(pos + n + size)
		n++
	}
	if n > 0 {
		q.head.Store(pos + n)
	}
	return dst
}

// PopBatch appends queued tasks to dst without blocking until len(dst)
// reaches max, the queue is empty or a rival consumer holds the drain,
// returning the extended slice.
func (q *ringQueue) PopBatch(dst []task, max int) []task {
	if len(dst) >= max || !q.consMu.TryLock() {
		return dst
	}
	dst = q.popLocked(dst, max)
	q.consMu.Unlock()
	return dst
}

// Pop blocks for one task; false means closed and fully drained.
func (q *ringQueue) Pop() (task, bool) {
	q.consMu.Lock()
	defer q.consMu.Unlock()
	var buf [1]task
	for {
		if got := q.popLocked(buf[:0], 1); len(got) == 1 {
			return got[0], true
		}
		if q.closed.Load() {
			// Closed while we looped. A push that completed just before
			// Close may have landed after the drain check above: check once
			// more now that closed is observed, then report end-of-queue
			// (no push can still be in flight once Close ran).
			if got := q.popLocked(buf[:0], 1); len(got) == 1 {
				return got[0], true
			}
			return task{}, false
		}
		q.waiting.Store(1)
		// Recheck after announcing (the producer's publish-then-check and
		// this announce-then-recheck form the standard no-lost-wakeup pair).
		if q.slots[q.head.Load()&q.mask].seq.Load() == q.head.Load()+1 || q.closed.Load() {
			q.waiting.Store(0)
			continue
		}
		select {
		case <-q.wake:
		case <-q.closedCh:
		}
		q.waiting.Store(0)
	}
}

// Close stops the queue: pushes fail, Pop drains the remainder then reports
// false. Idempotent.
func (q *ringQueue) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.closedCh)
	}
}
