// Bounded per-shard task queue: a lock-free MPSC ring (ringQueue) that is
// also the shard's publication list for flat combining (Hendler, Incze,
// Shavit, Tzafrir, SPAA 2010). Connection readers are the producers, each
// pushing a run of tasks at a time; PushBatch never blocks (what a full queue
// refuses is the BUSY backpressure signal — also how a full completion list,
// group.go, reaches the client). The ring carries the shard's executor tokens
// too: a producer that has published tries for one, and whoever holds one
// drains the ring with PopBatch and executes what it took (combine). Nobody
// parks on the ring: a holder gives its token back and then rechecks, and a
// producer publishes and then tries for a token — sequentially consistent
// atomics on both sides, so one of the two always sees the other and no
// published task is left without an executor.
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
// wakeup. The consumer side is serialized by consMu: whichever token holder
// takes it drains an entire batch with per-slot sequence reads and ONE head
// advance, then releases.
type ringQueue struct {
	_    [cacheLine]byte
	tail atomic.Uint64 // next position a producer claims
	_    [cacheLine - 8]byte
	head atomic.Uint64 // next position the consumer reads
	_    [cacheLine - 8]byte

	mask  uint64
	slots []ringSlot

	// held counts the executor tokens taken, at most tokens (the shard's
	// WorkersPerShard; 0 on a ring nobody combines). An atomic, not a
	// buffered channel: the producer's publish-then-acquire and the holder's
	// give-back-then-recheck are a Dekker pair, which needs the sequentially
	// consistent order Go's atomics give and a channel's full-check does not.
	held   atomic.Int32
	tokens int32

	// consMu serializes the token holders' pops (PopBatch's TryLock): a
	// holder that finds a rival popping leaves the rest to it.
	consMu sync.Mutex
}

func newRingQueue(depth, tokens int) *ringQueue {
	// Minimum 2: with a single slot the protocol's "free for position pos"
	// (seq == pos) and "published for the consumer" (seq == head+1) states
	// collide and a producer can overwrite an unconsumed task.
	size := 2
	for size < depth {
		size <<= 1
	}
	q := &ringQueue{
		mask:   uint64(size - 1),
		slots:  make([]ringSlot, size),
		tokens: int32(tokens),
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
// returns its length: 0 when the queue is full. The prefix is claimed with
// one CAS on tail, then filled and published slot by slot.
func (q *ringQueue) PushBatch(ts []task) int {
	if len(ts) == 0 {
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
		return n
	}
}

// PopBatch appends queued tasks to dst without blocking until len(dst)
// reaches max, the queue is empty or a rival holder is popping, returning the
// extended slice. Slots are freed for producers as they are read (per-slot
// seq store), but the drain is claimed with a single head advance at the end.
func (q *ringQueue) PopBatch(dst []task, max int) []task {
	if len(dst) >= max || !q.consMu.TryLock() {
		return dst
	}
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
	q.consMu.Unlock()
	return dst
}

// combine is flat combining on the ring: while a task waits there and one of
// the ring's executor tokens is free, it takes the token and calls drain,
// which pops until PopBatch finds the ring empty and executes what it took.
// It gives the token back and then checks again: a producer that published
// meanwhile and found every token held has left its tasks to the holders, and
// this recheck, or a rival holder's, takes them. A producer calls combine
// after each PushBatch.
func (q *ringQueue) combine(drain func()) {
	for q.ready() && q.acquire() {
		drain()
		q.held.Add(-1)
	}
}

// ready reports whether a published task waits at the head. It may miss one
// while a rival holder is popping (the slot is freed before head advances) —
// that holder drains on — or a run whose producer has claimed but not yet
// published it: that producer combines once it has.
func (q *ringQueue) ready() bool {
	pos := q.head.Load()
	return q.slots[pos&q.mask].seq.Load() == pos+1
}

// acquire takes one of the ring's executor tokens, false when all are held.
func (q *ringQueue) acquire() bool {
	for n := q.held.Load(); n < q.tokens; n = q.held.Load() {
		if q.held.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}
