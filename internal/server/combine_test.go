package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"votm"
	"votm/internal/faultinject"
	"votm/internal/stm"
	"votm/internal/wal"
	"votm/wire"
)

// TestInlineRunNeverOvertakesRing: a write run never overtakes ring work of
// its shard. On a one-token shard, a run published while a group of the shard
// is executing waits on the ring behind it — its reader finds the token held
// and reads on — and the holder runs it next, so a PUT → PUT of one key from
// two connections lands in arrival order. Each connection's dispatch runs on
// a goroutine of its own where it may execute, standing in for its reader.
func TestInlineRunNeverOvertakesRing(t *testing.T) {
	var (
		armed    atomic.Bool
		holding  = make(chan struct{})
		released = make(chan struct{})
	)
	hook := func(op faultinject.Op, _ int, _ stm.Addr) {
		if op == faultinject.OpAdmit && armed.CompareAndSwap(true, false) {
			close(holding)
			<-released
		}
	}
	s, err := New(Config{Shards: 1, WorkersPerShard: 1, FaultHook: hook})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	release := sync.OnceFunc(func() { close(released) })
	t.Cleanup(release) // before the shutdown: a failed check leaves the holder held
	sh := s.shards[0]
	first, second := newTestConn(s, 8), newTestConn(s, 8)

	// The first PUT's reader takes the token and is held inside the view.
	armed.Store(true)
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		first.dispatch(first.pointReq(wire.OpPut, 1, 7, "first"))
	}()
	select {
	case <-holding:
	case <-time.After(5 * time.Second):
		t.Fatal("the first PUT never reached the view")
	}
	sh.queue.mu.Lock()
	held := sh.queue.held
	sh.queue.mu.Unlock()
	if held != sh.queue.tokens {
		t.Fatalf("%d of %d tokens held: the second PUT could take one anyway", held, sh.queue.tokens)
	}

	second.dispatch(second.pointReq(wire.OpPut, 2, 7, "second"))
	unanswered(t, second, "while a ring group of its shard was executing")
	if n := sh.queue.Len(); n != 1 {
		t.Fatalf("%d tasks on the ring, want the second PUT", n)
	}
	release()
	<-firstDone
	for _, c := range []*conn{first, second} {
		for id, r := range collect(t, c, 1) {
			if r.status != wire.StatusOK {
				t.Errorf("PUT %d: %v", id, r.status)
			}
		}
	}
	th := s.rt.RegisterThread()
	defer th.Release()
	if v, _, err := sh.testGet(context.Background(), th, 7); err != nil || string(v) != "second" {
		t.Fatalf("key 7 = %q, %v; want the later PUT's value", v, err)
	}

	// Once the ring is idle again, the reader runs the next PUT itself.
	second.dispatch(second.pointReq(wire.OpPut, 3, 7, "third"))
	select {
	case r := <-second.out:
		if r.Status != wire.StatusOK {
			t.Fatalf("PUT 3: %v", r.Status)
		}
	default:
		t.Fatal("PUT 3 on an idle shard was not executed by its own reader")
	}
}

// TestInlineExecutorsBounded: however many connection readers publish to a
// shard at once, at most WorkersPerShard of them are ever running a group of
// it: each needs one of the shard's executor tokens, and a reader that finds
// none leaves its run to the holders. Every admission sleeps (the latency
// fault hook), so executors overlap, and a sampler counts the goroutines
// inside runGroup.
func TestInlineExecutorsBounded(t *testing.T) {
	const workers, conns, puts = 2, 6, 40
	inj := votm.NewFaultInjector(votm.FaultConfig{LatencyEvery: 1, Latency: 50 * time.Microsecond})
	s, err := New(Config{Shards: 1, WorkersPerShard: workers, RequestTimeout: time.Minute, FaultHook: inj.Hook()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)

	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(serverGoroutines("(*groupWorker).runGroup(")); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newTestConn(s, 4)
			for i := 0; i < puts; i++ {
				c.dispatch(c.pointReq(wire.OpPut, uint32(i+1), uint64(ci*puts+i), "v"))
				r := <-c.out
				if r.Status != wire.StatusOK {
					errs <- fmt.Errorf("conn %d PUT %d: %v", ci, i+1, r.Status)
				}
				c.recycle(r)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p := peak.Load(); p > workers || p == 0 {
		t.Errorf("peak of %d executors inside runGroup, want 1..%d", p, workers)
	}
	t.Logf("peak %d executors; %d groups", peak.Load(), s.shards[0].groups.Load())
}

// TestCombiningAnswersEveryRun: flat combining leaves no run behind. A reader
// whose publish finds every token held leaves its run to the holders, and a
// holder leaves only after it gave its token back and then found the ring
// empty or failed to take a token again.
//
// First the race that rule exists for, made to happen: a rival publishes just
// after the holder found the ring empty and before it gave its token back, so
// the rival finds no token; the holder's recheck must take the rival's task.
// (Left to timing alone the window is a few instructions wide and a stress
// run almost never lands in it.) Then the stress: on one shard with
// N ∈ {1, 2, 4} executor tokens, eight connections — each a goroutine
// standing in for its reader — pipeline bursts of PUTs and one-key ADDs at it
// under a latency fault hook, in rounds released together. Once every reader
// of a round has returned, the ring is empty and every request of the round
// is answered; the counter equals the ADDs acknowledged; after Shutdown the
// ring is empty.
func TestCombiningAnswersEveryRun(t *testing.T) {
	t.Run("rival at the holder's exit", func(t *testing.T) {
		q := newRingQueue(8, 1)
		popped := 0
		drain := func() {
			for len(q.PopBatch(nil, 4)) > 0 {
				popped++
			}
		}
		push1(q, qtask(0, 0))
		q.combine(func() {
			drain()
			if popped == 1 { // the ring is empty: a rival publishes now
				rival := make(chan struct{})
				go func() {
					defer close(rival)
					push1(q, qtask(1, 0))
					q.combine(func() { t.Error("the rival took the token the holder holds") })
				}()
				<-rival
			}
		})
		if n := q.Len(); n != 0 || popped != 2 {
			t.Fatalf("the holder left %d tasks on the ring after its rival found no token (%d taken)", n, popped)
		}
	})
	const conns, burst, counter = 8, 6, 1 << 40
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for _, tokens := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("tokens=%d", tokens), func(t *testing.T) {
			inj := votm.NewFaultInjector(votm.FaultConfig{LatencyEvery: 5, Latency: 20 * time.Microsecond})
			s, err := New(Config{Shards: 1, WorkersPerShard: tokens, QueueDepth: conns * burst,
				RequestTimeout: time.Minute, FaultHook: inj.Hook()})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			sh := s.shards[0]
			cs := make([]*conn, conns)
			for i := range cs {
				cs[i] = newTestConn(s, burst)
			}
			var adds uint64
			for r := 0; r < rounds; r++ {
				start := make(chan struct{})
				var wg sync.WaitGroup
				for ci, c := range cs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; i < burst; i++ {
							id := uint32(r*burst + i + 1)
							req := c.pointReq(wire.OpPut, id, uint64(ci*burst+i), "v")
							if i%2 == 1 {
								req = c.atomicReq(id, wire.Sub{Kind: wire.SubAdd, Key: counter, Delta: 1})
							}
							c.more = i < burst-1 // a pipelined burst: one run, published at its end
							c.dispatch(req)
						}
					}()
				}
				close(start)
				wg.Wait()
				if n := sh.queue.Len(); n != 0 {
					t.Fatalf("round %d: every reader returned with %d tasks left on the ring", r, n)
				}
				for _, c := range cs {
					for id, got := range collect(t, c, burst) {
						switch {
						case got.status != wire.StatusOK:
							t.Fatalf("round %d: request %d: %v", r, id, got.status)
						case len(got.subs) == 1:
							adds++
						}
					}
				}
			}
			th := s.rt.RegisterThread()
			v, _, err := sh.testGet(context.Background(), th, counter)
			th.Release()
			if err != nil || len(v) != 8 || binary.LittleEndian.Uint64(v) != adds {
				t.Errorf("counter %x, %v after %d acknowledged ADDs", v, err, adds)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			for _, sh := range s.shards {
				if n := sh.queue.Len(); n != 0 {
					t.Errorf("shard %d: %d tasks on the ring after Shutdown", sh.id, n)
				}
			}
		})
	}
}

// TestCombiningStartsNoGoroutines: executing a shard's groups takes no
// goroutine of the server's own — the connection readers execute — so an idle
// server runs as many goroutines whatever its token count.
func TestCombiningStartsNoGoroutines(t *testing.T) {
	// Earlier tests' goroutines may still be exiting: read the count once it
	// has held still for a while.
	settled := func() int {
		n := runtime.NumGoroutine()
		for same := 0; same < 20; time.Sleep(time.Millisecond) {
			if m := runtime.NumGoroutine(); m != n {
				n, same = m, 0
			} else {
				same++
			}
		}
		return n
	}
	count := func(tokens int) int {
		before := settled()
		s, err := New(Config{Shards: 8, WorkersPerShard: tokens})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer func() { _ = s.Shutdown(context.Background()) }()
		return settled() - before
	}
	if one, four := count(1), count(4); one != four {
		t.Errorf("an idle 8-shard server runs %d goroutines with 1 token per shard, %d with 4", one, four)
	}
}

// TestSteadyStateInlinePutAllocs: once the pools, the reader's execution
// state and the descriptors are warm, a PUT the reader executes itself —
// pooled request, plan, the ring, the group, its answer — allocates nothing,
// with durability off and on (a listed group, answered by the flusher).
func TestSteadyStateInlinePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 1, RequestTimeout: time.Hour}
			if durable {
				cfg.Durability, cfg.DataDir, cfg.SnapshotEvery = DurabilityGroup, t.TempDir(), time.Hour
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			shutdownServer(t, s)
			c := newTestConn(s, 4)
			val := []byte(strings.Repeat("v", 64))
			run := func() {
				req := c.testReq(wire.OpPut, 1)
				req.Key, req.Value = 7, val
				c.dispatch(req)
				r := <-c.out
				if r.Status != wire.StatusOK || r.Next != nil {
					t.Fatalf("inline PUT: %+v", r)
				}
				c.recycle(r)
			}
			for i := 0; i < 32; i++ {
				run()
			}
			if n := testing.AllocsPerRun(200, run); n != 0 {
				t.Errorf("steady-state inline PUT allocates %.1f/op, want 0", n)
			}
		})
	}
}

// TestSnapshotCaptureAllocs: a state capture on a TM-mode shard reads its
// walk validated, logging none of the words it reads, so what it allocates
// follows the entries it returns. An admitted NOrec read-only transaction
// would log every word the walk loads — a few hundred bytes per entry here.
func TestSnapshotCaptureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	s, err := New(Config{Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 2, RequestTimeout: time.Hour,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	sh := s.shards[0]
	if q := sh.view.Quota(); q < 2 {
		t.Fatalf("quota %d: the view runs in lock mode, which logs nothing anyway", q)
	}
	th := s.rt.RegisterThread()
	defer th.Release()
	const n, valLen = 2048, 8
	val := bytes.Repeat([]byte{0xAB}, valLen)
	for k := uint64(0); k < n; k++ {
		if _, err := sh.testPut(context.Background(), th, k, val); err != nil {
			t.Fatal(err)
		}
	}
	capture := s.rt.RegisterThread() // a fresh descriptor, as the snapshot loop's first capture has
	defer capture.Release()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	entries, _, err := s.captureShardState(sh, capture, nil)
	runtime.ReadMemStats(&after)
	if err != nil || len(entries) != n {
		t.Fatalf("capture: %d entries, %v", len(entries), err)
	}
	// The entries and the value bytes behind them, each grown by append,
	// which at these lengths allocates under four times what it keeps in
	// all (≈ 250 KiB here; a NOrec read log on top came to ≈ 920 KiB).
	bound := 4*n*(int(unsafe.Sizeof(wal.Entry{}))+valLen) + 64<<10
	if got := int(after.TotalAlloc - before.TotalAlloc); got > bound {
		t.Errorf("capture of %d entries allocated %d bytes, want at most %d", n, got, bound)
	}
}
