package server

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm/wire"
)

// taskQueue is the queue contract the differential tests hold both
// implementations to: the ring the server runs, and the chan-based queue it
// replaced, kept here as the semantics oracle.
type taskQueue interface {
	PushBatch(ts []task) int
	Pop() (task, bool)
	PopBatch(dst []task, max int) []task
	Len() int
	Cap() int
	Close()
}

// queueImpls builds each implementation at a given depth.
var queueImpls = []struct {
	name string
	new  func(depth int) taskQueue
}{
	{"ring", func(depth int) taskQueue { return newRingQueue(depth) }},
	{"channel", func(depth int) taskQueue { return &chanQueue{ch: make(chan task, depth)} }},
}

// chanQueue is the original chan-based queue: the reference the ring's
// semantics are compared against.
type chanQueue struct {
	ch        chan task
	closeOnce sync.Once
}

func (q *chanQueue) Cap() int { return cap(q.ch) }
func (q *chanQueue) Len() int { return len(q.ch) }

// PushBatch has the ring's prefix semantics: it enqueues tasks in order until
// the channel is full and returns how many it took.
func (q *chanQueue) PushBatch(ts []task) int {
	for i, t := range ts {
		select {
		case q.ch <- t:
		default:
			return i
		}
	}
	return len(ts)
}

func (q *chanQueue) Pop() (task, bool) {
	t, ok := <-q.ch
	return t, ok
}

func (q *chanQueue) PopBatch(dst []task, max int) []task {
	for len(dst) < max {
		select {
		case t, ok := <-q.ch:
			if !ok {
				return dst
			}
			dst = append(dst, t)
		default:
			return dst
		}
	}
	return dst
}

func (q *chanQueue) Close() { q.closeOnce.Do(func() { close(q.ch) }) }

// qtask builds a uniquely identifiable task: producer p's n-th push (the
// wire ID is 32 bits: producer in the top byte, sequence below).
func qtask(p, n int) task {
	return task{req: &wire.Request{ID: uint32(p)<<24 | uint32(n)}}
}

func qid(t task) (p, n int) {
	return int(t.req.ID >> 24), int(t.req.ID & (1<<24 - 1))
}

// push1 pushes a run of one.
func push1(q taskQueue, t task) bool { return q.PushBatch([]task{t}) == 1 }

// run builds producer p's tasks n, n+1, ... n+k-1.
func run(p, n, k int) []task {
	ts := make([]task, k)
	for i := range ts {
		ts[i] = qtask(p, n+i)
	}
	return ts
}

// TestTaskQueueFIFO checks single-threaded semantics on both implementations:
// FIFO order, a run that meets a full queue pushes the prefix that fits,
// Close => drain then end-of-queue.
func TestTaskQueueFIFO(t *testing.T) {
	for _, qi := range queueImpls {
		impl, q := qi.name, qi.new(8)
		if q.Cap() != 8 {
			t.Fatalf("%s: Cap() = %d, want 8", impl, q.Cap())
		}
		if n := q.PushBatch(run(0, 0, 5)); n != 5 {
			t.Fatalf("%s: a run of 5 on an empty queue pushed %d", impl, n)
		}
		if n := q.PushBatch(run(0, 5, 5)); n != 3 {
			t.Fatalf("%s: a run of 5 with room for 3 pushed %d", impl, n)
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
			tk, ok := q.Pop()
			if !ok {
				t.Fatalf("%s: Pop reports closed with %d queued", impl, q.Len())
			}
			if _, n := qid(tk); n != next {
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
		// Close with one task queued: Pop drains it, then reports closed.
		if !push1(q, qtask(0, 100)) {
			t.Fatalf("%s: push rejected on empty queue", impl)
		}
		q.Close()
		// Pushing after Close is outside the contract (the server only closes
		// after reqWG drains); the ring rejects it anyway, the channel cannot.
		if impl == "ring" && push1(q, qtask(0, 101)) {
			t.Fatalf("%s: push accepted after Close", impl)
		}
		if tk, ok := q.Pop(); !ok || tk.req.ID != qtask(0, 100).req.ID {
			t.Fatalf("%s: Pop after Close = (%v, %v), want the queued task", impl, tk.req, ok)
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("%s: Pop reported a task on a closed drained queue", impl)
		}
	}
}

// TestRingQueueMinSize is the regression for the size-1 degeneration: a
// Vyukov ring needs at least two slots or a second producer can overwrite an
// unconsumed task ("free for pos" and "published for head" states collide).
// QueueDepth 1 must still hand every pushed task to the consumer.
func TestRingQueueMinSize(t *testing.T) {
	q := newRingQueue(1)
	if q.Cap() < 2 {
		t.Fatalf("Cap() = %d, want >= 2 (size-1 rings degenerate)", q.Cap())
	}
	for i := 0; i < 100; i++ {
		if !push1(q, qtask(0, i)) {
			t.Fatalf("push %d rejected on empty ring", i)
		}
		// With >= 2 slots a second push may land before the first pop...
		push1(q, qtask(0, 1000+i))
		// ...and both must come out, in order, without loss.
		tk, ok := q.Pop()
		if !ok {
			t.Fatalf("round %d: pushed task lost", i)
		}
		if _, n := qid(tk); n != i {
			t.Fatalf("round %d: popped %d, want %d", i, n, i)
		}
		for _, tk := range q.PopBatch(nil, 2) {
			if _, n := qid(tk); n != 1000+i {
				t.Fatalf("round %d: second pop = %d, want %d", i, n, 1000+i)
			}
		}
	}
}

// TestTaskQueueCloseWakesPop checks Close unblocks a parked consumer.
func TestTaskQueueCloseWakesPop(t *testing.T) {
	for _, qi := range queueImpls {
		impl, q := qi.name, qi.new(8)
		done := make(chan bool, 1)
		go func() {
			_, ok := q.Pop()
			done <- ok
		}()
		time.Sleep(10 * time.Millisecond) // let it park
		q.Close()
		select {
		case ok := <-done:
			if ok {
				t.Fatalf("%s: Pop returned a task from an empty closed queue", impl)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Pop still blocked after Close", impl)
		}
	}
}

// TestTaskQueueDifferential is the differential fuzz: N producers push runs
// of random length (1–32) while consumers drain the queue with the same mixed
// pop calls the worker loop uses, on BOTH implementations — the channel is
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
						pushed := q.PushBatch(run(p, n, k))
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
			var cwg sync.WaitGroup
			for c := 0; c < consumers; c++ {
				cwg.Add(1)
				go func(seed int64) {
					defer cwg.Done()
					rng := rand.New(rand.NewSource(seed))
					buf := make([]task, 0, 16)
					for {
						switch rng.Intn(2) {
						case 0:
							tk, ok := q.Pop()
							if !ok {
								return
							}
							got <- tk
						default:
							buf = q.PopBatch(buf[:0], 1+rng.Intn(16))
							for _, tk := range buf {
								got <- tk
							}
						}
					}
				}(int64(consumers*100 + c))
			}

			wg.Wait()
			q.Close() // producers done: consumers drain the tail and exit
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

// TestRingQueueWakeup checks the publish-then-check / announce-then-recheck
// pairing: a consumer that parks on an empty ring is woken by the next push,
// repeatedly, with no lost wakeups.
func TestRingQueueWakeup(t *testing.T) {
	q := newRingQueue(8)
	rounds := 500
	if testing.Short() {
		rounds = 50
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			tk, ok := q.Pop()
			if !ok {
				return
			}
			if _, n := qid(tk); n != i {
				t.Errorf("round %d: popped %d", i, n)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		for !push1(q, qtask(0, i)) {
			runtime.Gosched()
		}
		// Let the consumer drain and park again some of the time.
		if i%7 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer deadlocked: lost wakeup")
	}
	q.Close()
}
