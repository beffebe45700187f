package server

import (
	"bytes"
	"context"
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

// TestInlineRunNeverOvertakesRing: a write run the reader would execute
// itself goes to the ring instead while ring work of its shard is queued or
// still executing — here a PUT that a worker popped and holds inside the view
// with an admission slot and an executor token to spare. A count lowered at
// Pop instead of when the worker's group finished would let the reader run
// the second PUT beside, and so possibly ahead of, the first.
func TestInlineRunNeverOvertakesRing(t *testing.T) {
	var (
		armed    atomic.Bool
		reader   atomic.Int64
		once     sync.Once
		holding  = make(chan struct{})
		released = make(chan struct{})
	)
	hook := func(op faultinject.Op, th int, _ stm.Addr) {
		if op == faultinject.OpAdmit && armed.Load() && int64(th) != reader.Load() {
			once.Do(func() { close(holding) })
			<-released
		}
	}
	s, err := New(Config{Shards: 1, WorkersPerShard: 2, FaultHook: hook})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	release := sync.OnceFunc(func() { close(released) })
	t.Cleanup(release) // before the shutdown: a failed check leaves the worker held
	sh := s.shards[0]
	c := newTestConn(s, 8)
	reader.Store(int64(c.executor().th.ID()))

	// The first PUT finds the view paused, so it queues; a worker pops it and
	// parks in admission, then, admitted, in the hook.
	ctl := sh.view.Controller()
	if err := ctl.PauseAndDrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.dispatch(c.pointReq(wire.OpPut, 1, 7, "first"))
	armed.Store(true)
	ctl.Resume()
	select {
	case <-holding:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never reached the view")
	}
	if q, in := sh.view.Quota(), ctl.InFlight(); in >= q {
		t.Fatalf("quota %d with %d inside: the second PUT could not be admitted anyway", q, in)
	}

	c.dispatch(c.pointReq(wire.OpPut, 2, 7, "second"))
	unanswered(t, c, "while a ring group of its shard was executing")
	if rs := s.RoundStats(); rs.InlineRuns != 0 {
		t.Fatalf("%d runs executed on the reader beside ring work", rs.InlineRuns)
	}
	release()
	for id, r := range collect(t, c, 2) {
		if r.status != wire.StatusOK {
			t.Errorf("PUT %d: %v", id, r.status)
		}
	}

	// Once the ring is idle again, the reader runs the next PUT itself.
	for deadline := time.Now().Add(5 * time.Second); sh.ringWork.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ring work %d after both PUTs were answered", sh.ringWork.Load())
		}
	}
	c.dispatch(c.pointReq(wire.OpPut, 3, 7, "third"))
	if r := collect(t, c, 1)[3]; r.status != wire.StatusOK {
		t.Fatalf("PUT 3: %v", r.status)
	}
	if rs := s.RoundStats(); rs.InlineRuns != 1 || rs.InlineOps != 1 {
		t.Errorf("inline meters %d runs, %d ops; want 1, 1", rs.InlineRuns, rs.InlineOps)
	}
}

// TestInlineExecutorsBounded: however many connection readers find a shard
// idle, at most WorkersPerShard executors — readers and workers together —
// are ever running a group of it: each needs one of the shard's executor
// tokens, and a reader that finds none queues its run. Every admission sleeps
// (the latency fault hook), so executors overlap, and a sampler counts the
// goroutines inside runGroup.
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
	rs, sh := s.RoundStats(), s.shards[0]
	if p := peak.Load(); p > workers || p == 0 {
		t.Errorf("peak of %d executors inside runGroup, want 1..%d", p, workers)
	}
	if rs.InlineRuns == 0 || rs.InlineRuns >= sh.groups.Load() {
		t.Errorf("%d runs on the readers of %d groups: want both readers and workers executing", rs.InlineRuns, sh.groups.Load())
	}
	t.Logf("peak %d executors; %d of %d groups on the readers", peak.Load(), rs.InlineRuns, sh.groups.Load())
}

// TestInlineRunNeverWaits: a reader that would have to wait to start its run
// queues it instead and reads on — whether the wait is a paused view's
// admission or room on a full completion list. The run's worker does the
// waiting, and answers it once the wait is over.
func TestInlineRunNeverWaits(t *testing.T) {
	t.Run("paused view", func(t *testing.T) {
		s, err := New(Config{Shards: 1, WorkersPerShard: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		shutdownServer(t, s)
		sh, c := s.shards[0], newTestConn(s, 4)
		ctl := sh.view.Controller()
		if err := ctl.PauseAndDrain(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.dispatch(c.pointReq(wire.OpPut, 1, 7, "paused"))
		if n := sh.ringWork.Load(); n != 1 {
			t.Fatalf("ring work %d after a PUT on a paused view, want 1", n)
		}
		unanswered(t, c, "while its view was paused")
		ctl.Resume()
		if r := collect(t, c, 1)[1]; r.status != wire.StatusOK {
			t.Fatalf("PUT: %v", r.status)
		}
		if rs := s.RoundStats(); rs.InlineRuns != 0 {
			t.Errorf("%d runs executed on the reader", rs.InlineRuns)
		}
	})

	t.Run("full completion list", func(t *testing.T) {
		const depth = 2
		h := newHeldFlush(t, Config{QueueDepth: depth})
		sh, keys := h.shards[1], h.keys[1]
		h.armed.Store(true)
		h.putExecuted(t, h.c, 1, 1, keys[0], "listed")
		<-h.holding
		h.putExecuted(t, h.c, 1, 2, keys[1], "listed") // the list is full now
		if rs := h.s.RoundStats(); rs.InlineRuns != 2 {
			t.Fatalf("%d of the first two PUTs ran on the reader", rs.InlineRuns)
		}
		h.c.dispatch(h.c.pointReq(wire.OpPut, 3, keys[2], "queued"))
		if rs := h.s.RoundStats(); rs.InlineRuns != 2 {
			t.Fatalf("the PUT past a full list ran on the reader")
		}
		for deadline := time.Now().Add(5 * time.Second); h.s.AckStats().Stalls != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the PUT past a full list did not stall a worker: %+v, ring work %d", h.s.AckStats(), sh.ringWork.Load())
			}
		}
		unanswered(t, h.c, "with the flush held")
		h.release <- nil
		for id, r := range collect(t, h.c, 3) {
			if r.status != wire.StatusOK {
				t.Errorf("PUT %d: %v", id, r.status)
			}
		}
		if st := h.s.AckStats(); st.HighWater != depth {
			t.Errorf("high water of unanswered ops %d, want the bound %d", st.HighWater, depth)
		}
	})
}

// TestSteadyStateInlinePutAllocs: once the pools, the reader's execution
// state and the descriptors are warm, a PUT the reader executes itself —
// pooled request, plan, the group, its answer — allocates nothing, with
// durability off and on (a listed group, answered by the flusher).
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
			if rs := s.RoundStats(); rs.InlineRuns != 233 || rs.InlineOps != 233 {
				t.Errorf("inline meters %d runs, %d ops; want every PUT (233)", rs.InlineRuns, rs.InlineOps)
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
