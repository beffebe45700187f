// Bounded per-shard task queue (ringQueue): a circular buffer behind one
// mutex that is also the shard's publication list for flat combining
// (Hendler, Incze, Shavit, Tzafrir, SPAA 2010). Connection readers are the
// producers, each pushing a run of tasks at a time; PushBatch never blocks
// on room (what a full queue refuses is the BUSY backpressure signal — also
// how a full completion list, group.go, reaches the client). The queue holds
// the shard's executor tokens too: a producer that has pushed tries for one,
// and whoever holds one drains the queue with PopBatch and executes what it
// took (combine). Nobody parks on the queue: a holder gives its token back
// and then rechecks, a producer pushes and then tries for a token, and both
// decide under the queue's lock, so one of the two always sees the other's
// work and no published task is left without an executor.
// The server's first, chan-based shard queue lives on in ring_test.go as the
// differential-testing oracle.
package server

import "sync"

// ringQueue is a bounded FIFO of tasks. mu guards the buffer, its cursor, its
// length and the executor tokens taken.
type ringQueue struct {
	mu   sync.Mutex
	buf  []task
	head int // index of the oldest queued task
	n    int // tasks queued

	// held counts the executor tokens taken, at most tokens (the shard's
	// WorkersPerShard; 0 on a queue nobody combines).
	held, tokens int
}

func newRingQueue(depth, tokens int) *ringQueue {
	return &ringQueue{buf: make([]task, depth), tokens: tokens}
}

// Cap is the queue bound: the depth it was built with.
func (q *ringQueue) Cap() int { return len(q.buf) }

// Len is the number of tasks queued.
func (q *ringQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// PushBatch enqueues the longest prefix of ts the queue has room for and
// returns its length, 0 when the queue is full, and the depth it left.
func (q *ringQueue) PushBatch(ts []task) (pushed, depth int) {
	q.mu.Lock()
	pushed = min(len(ts), len(q.buf)-q.n)
	tail := q.head + q.n
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	k := copy(q.buf[tail:], ts[:pushed])
	copy(q.buf, ts[k:pushed]) // the part that wraps
	q.n += pushed
	depth = q.n
	q.mu.Unlock()
	return pushed, depth
}

// PopBatch appends queued tasks to dst, oldest first, until len(dst) reaches
// max or the queue is empty, and returns the extended slice.
func (q *ringQueue) PopBatch(dst []task, max int) []task {
	q.mu.Lock()
	for ; len(dst) < max && q.n > 0; q.n-- {
		dst = append(dst, q.buf[q.head])
		q.buf[q.head] = task{}
		if q.head++; q.head == len(q.buf) {
			q.head = 0
		}
	}
	q.mu.Unlock()
	return dst
}

// combine is flat combining on the queue: while a task waits there and one
// of the queue's executor tokens is free, it takes the token and calls drain,
// which pops until PopBatch finds the queue empty and executes what it took.
// It gives the token back and checks again under the same lock: a producer
// that pushed meanwhile and found every token held has left its tasks to the
// holders, and this recheck, or a rival holder's, takes them. A producer
// calls combine after each PushBatch.
func (q *ringQueue) combine(drain func()) {
	q.mu.Lock()
	for q.n > 0 && q.held < q.tokens {
		q.held++
		q.mu.Unlock()
		drain()
		q.mu.Lock()
		q.held--
	}
	q.mu.Unlock()
}
