package server

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"votm/wire"
)

// taskQueue is the queue contract the differential tests hold both
// implementations to: the ring the server runs, and the chan-based queue it
// replaced, kept here as the semantics oracle.
type taskQueue interface {
	PushBatch(ts []task) (pushed, depth int)
	PopBatch(dst []task, max int) []task
	Len() int
	Cap() int
}

// queueImpls builds each implementation at a given depth.
var queueImpls = []struct {
	name string
	new  func(depth int) taskQueue
}{
	{"ring", func(depth int) taskQueue { return newRingQueue(depth, 0) }},
	{"channel", func(depth int) taskQueue { return &chanQueue{ch: make(chan task, depth)} }},
}

// chanQueue is the original chan-based queue: the reference the ring's
// semantics are compared against.
type chanQueue struct{ ch chan task }

func (q *chanQueue) Cap() int { return cap(q.ch) }
func (q *chanQueue) Len() int { return len(q.ch) }

// PushBatch has the ring's prefix semantics: it enqueues tasks in order until
// the channel is full and returns how many it took and the depth it left.
func (q *chanQueue) PushBatch(ts []task) (pushed, depth int) {
	for i, t := range ts {
		select {
		case q.ch <- t:
		default:
			return i, len(q.ch)
		}
	}
	return len(ts), len(q.ch)
}

func (q *chanQueue) PopBatch(dst []task, max int) []task {
	for len(dst) < max {
		select {
		case t := <-q.ch:
			dst = append(dst, t)
		default:
			return dst
		}
	}
	return dst
}

// qtask builds a uniquely identifiable task: producer p's n-th push (the
// wire ID is 32 bits: producer in the top byte, sequence below).
func qtask(p, n int) task {
	return task{req: &wire.Request{ID: uint32(p)<<24 | uint32(n)}}
}

func qid(t task) (p, n int) {
	return int(t.req.ID >> 24), int(t.req.ID & (1<<24 - 1))
}

// push1 pushes a run of one.
func push1(q taskQueue, t task) bool {
	n, _ := q.PushBatch([]task{t})
	return n == 1
}

// run builds producer p's tasks n, n+1, ... n+k-1.
func run(p, n, k int) []task {
	ts := make([]task, k)
	for i := range ts {
		ts[i] = qtask(p, n+i)
	}
	return ts
}

// TestTaskQueueFIFO checks single-threaded semantics on both implementations:
// FIFO order, a run that meets a full queue pushes the prefix that fits, an
// empty queue pops nothing.
func TestTaskQueueFIFO(t *testing.T) {
	for _, qi := range queueImpls {
		impl, q := qi.name, qi.new(8)
		if q.Cap() != 8 {
			t.Fatalf("%s: Cap() = %d, want 8", impl, q.Cap())
		}
		if n, depth := q.PushBatch(run(0, 0, 5)); n != 5 || depth != 5 {
			t.Fatalf("%s: a run of 5 on an empty queue pushed %d, depth %d", impl, n, depth)
		}
		if n, depth := q.PushBatch(run(0, 5, 5)); n != 3 || depth != 8 {
			t.Fatalf("%s: a run of 5 with room for 3 pushed %d, depth %d", impl, n, depth)
		}
		if push1(q, qtask(0, 99)) {
			t.Fatalf("%s: push accepted on a full queue", impl)
		}
		if got := q.Len(); got != q.Cap() {
			t.Fatalf("%s: Len() = %d, want %d", impl, got, q.Cap())
		}
		// Drain half one-at-a-time, half batched: order must be push order.
		next := 0
		for ; next < q.Cap()/2; next++ {
			got := q.PopBatch(nil, 1)
			if len(got) != 1 {
				t.Fatalf("%s: PopBatch took %d with %d queued", impl, len(got), q.Len())
			}
			if _, n := qid(got[0]); n != next {
				t.Fatalf("%s: popped %d, want %d (FIFO)", impl, n, next)
			}
		}
		batch := q.PopBatch(nil, q.Cap())
		if len(batch) != q.Cap()-next {
			t.Fatalf("%s: PopBatch got %d, want %d", impl, len(batch), q.Cap()-next)
		}
		for _, tk := range batch {
			if _, n := qid(tk); n != next {
				t.Fatalf("%s: batch popped %d, want %d (FIFO)", impl, n, next)
			}
			next++
		}
		if got := q.PopBatch(nil, q.Cap()); len(got) != 0 || q.Len() != 0 {
			t.Fatalf("%s: drained queue popped %d, Len() = %d", impl, len(got), q.Len())
		}
	}
}

// TestRingQueueMinSize: QueueDepth 1 is a queue of exactly one task. A run
// pushes its first task and is refused the rest until that task is popped,
// and every task pushed comes out once, in push order, as the one cursor
// wraps on every pop.
func TestRingQueueMinSize(t *testing.T) {
	q := newRingQueue(1, 0)
	if q.Cap() != 1 {
		t.Fatalf("Cap() = %d, want 1", q.Cap())
	}
	next := 0
	for i := 0; i < 100; i++ {
		if n, depth := q.PushBatch(run(0, next, 3)); n != 1 || depth != 1 {
			t.Fatalf("round %d: a run of 3 on an empty queue of one pushed %d, depth %d", i, n, depth)
		}
		if push1(q, qtask(0, next+1)) {
			t.Fatalf("round %d: a second task pushed into a queue of one", i)
		}
		got := q.PopBatch(nil, 2)
		if len(got) != 1 {
			t.Fatalf("round %d: popped %d tasks, want 1", i, len(got))
		}
		if _, n := qid(got[0]); n != next {
			t.Fatalf("round %d: popped %d, want %d", i, n, next)
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: Len() = %d after the pop", i, q.Len())
		}
		next++
	}
}

// TestTaskQueueDifferential is the differential fuzz: N producers push runs
// of random length (1–32) while consumers drain the queue with pops of random
// bounds, on BOTH implementations — the channel is
// the semantics oracle the ring must match. A run that meets a full queue
// pushes a prefix, and its producer pushes the refused suffix again later.
// Invariants: every task is consumed exactly once (no loss, no duplication —
// so a refused suffix is exactly what was not claimed), and with a single
// consumer each producer's tasks arrive in its push order.
func TestTaskQueueDifferential(t *testing.T) {
	producers := 4
	perProducer := 20000
	if testing.Short() {
		perProducer = 2000
	}
	for _, qi := range queueImpls {
		for _, consumers := range []int{1, 3} {
			impl, q := qi.name, qi.new(64)
			total := producers * perProducer

			var wg sync.WaitGroup
			var partial atomic.Int64
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					for n := 0; n < perProducer; {
						k := min(1+rng.Intn(32), perProducer-n)
						pushed, _ := q.PushBatch(run(p, n, k))
						switch {
						case pushed == 0:
							runtime.Gosched() // full: the BUSY path, just retry here
						case pushed < k:
							partial.Add(1)
						}
						n += pushed
					}
				}(p)
			}

			got := make(chan task, total)
			var (
				cwg  sync.WaitGroup
				done atomic.Bool
			)
			for c := 0; c < consumers; c++ {
				cwg.Add(1)
				go func(seed int64) {
					defer cwg.Done()
					rng := rand.New(rand.NewSource(seed))
					buf := make([]task, 0, 16)
					for {
						// Read before the pop: a pop that finds nothing after
						// the producers were done leaves nothing behind.
						last := done.Load()
						buf = q.PopBatch(buf[:0], 1+rng.Intn(16))
						for _, tk := range buf {
							got <- tk
						}
						if len(buf) == 0 {
							if last && q.Len() == 0 {
								return
							}
							runtime.Gosched()
						}
					}
				}(int64(consumers*100 + c))
			}

			wg.Wait()
			done.Store(true) // producers done: consumers drain the tail and exit
			cwg.Wait()
			close(got)

			seen := make(map[uint32]int, total)
			lastPerProducer := make([]int, producers)
			for i := range lastPerProducer {
				lastPerProducer[i] = -1
			}
			count := 0
			for tk := range got {
				count++
				seen[tk.req.ID]++
				p, n := qid(tk)
				if consumers == 1 && n <= lastPerProducer[p] {
					t.Fatalf("%s/%dc: producer %d order violated: %d after %d",
						impl, consumers, p, n, lastPerProducer[p])
				}
				lastPerProducer[p] = n
			}
			if count != total {
				t.Fatalf("%s/%dc: consumed %d tasks, want %d (lost or duplicated)",
					impl, consumers, count, total)
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("%s/%dc: task %x consumed %d times", impl, consumers, id, c)
				}
			}
			t.Logf("%s/%dc: %d runs pushed a prefix", impl, consumers, partial.Load())
		}
	}
}

// TestRingQueueWakeup checks the combining rule that replaces a parked
// consumer (ringQueue.combine): producers push and then try for an executor
// token, and a holder drains, gives its token back and then rechecks, both
// under the queue's lock. Each round, producers
// released together push a task each and combine; once every one of them has
// returned, every task must have been taken — a producer that finds no token
// relies on a holder's recheck, and a missing recheck strands its task on the
// ring with nobody left to drain it.
func TestRingQueueWakeup(t *testing.T) {
	const producers = 8
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for _, tokens := range []int{1, 2} {
		q := newRingQueue(64, tokens)
		var popped atomic.Int64
		drain := func() {
			var buf [4]task
			for got := q.PopBatch(buf[:0], 4); len(got) > 0; got = q.PopBatch(buf[:0], 4) {
				popped.Add(int64(len(got)))
			}
		}
		for r := 0; r < rounds; r++ {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for !push1(q, qtask(p, r)) {
						runtime.Gosched()
					}
					q.combine(drain)
				}()
			}
			close(start)
			wg.Wait()
			if n := q.Len(); n != 0 || popped.Load() != int64((r+1)*producers) {
				t.Fatalf("%d tokens, round %d: %d tasks left on the ring with no combiner, %d of %d taken",
					tokens, r, n, popped.Load(), (r+1)*producers)
			}
		}
	}
}
