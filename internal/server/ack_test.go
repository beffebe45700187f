package server

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"votm/internal/faultinject"
	"votm/internal/wal"
	"votm/wire"
)

// heldFlush is a durable three-shard fixture (one worker per shard) whose disk
// hook, once armed, stops the next flush inside its DiskSync site: whatever
// was appended is not durable, holding is closed, and the flush returns what
// the test sends on release.
type heldFlush struct {
	*roundFixture
	armed   atomic.Bool
	holding chan struct{}
	release chan error
}

func newHeldFlush(t *testing.T, cfg Config) *heldFlush {
	h := &heldFlush{holding: make(chan struct{}), release: make(chan error, 1)}
	cfg.ShardWords, cfg.WorkersPerShard = 1<<12, 1
	cfg.Durability, cfg.DataDir, cfg.SnapshotEvery = DurabilityGroup, t.TempDir(), time.Hour
	cfg.DiskFaultHook = func(op faultinject.DiskOp) error {
		if op == faultinject.DiskSync && h.armed.CompareAndSwap(true, false) {
			close(h.holding)
			return <-h.release
		}
		return nil
	}
	h.roundFixture = newRoundFixture(t, cfg, 4)
	t.Cleanup(func() { // registered last: runs before the fixture's Shutdown
		select {
		case h.release <- nil:
		default:
		}
	})
	return h
}

// pointReq builds a point request from c's stock.
func (c *conn) pointReq(op wire.Op, id uint32, key uint64, val string) *wire.Request {
	req := c.testReq(op, id)
	req.Key, req.Value = key, []byte(val)
	return req
}

// putExecuted dispatches a PUT on c and returns once its group has executed
// and appended — which, with the shard's flush held, is all that can happen.
func (h *heldFlush) putExecuted(t *testing.T, c *conn, shard int, id uint32, key uint64, val string) {
	t.Helper()
	sh := h.shards[shard]
	appends := sh.walAppends.Load()
	c.dispatch(c.pointReq(wire.OpPut, id, key, val))
	for deadline := time.Now().Add(5 * time.Second); sh.walAppends.Load() == appends; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("PUT %d did not execute while an earlier flush was held", id)
		}
	}
}

// unanswered fails the test if anything arrives on c within a short grace.
func unanswered(t *testing.T, c *conn, what string) {
	t.Helper()
	select {
	case r := <-c.out:
		t.Fatalf("request %d answered %s", r.ID, what)
	case <-time.After(20 * time.Millisecond):
	}
}

// serverGoroutines counts the live goroutines whose stack contains every one
// of the given frames.
func serverGoroutines(frames ...string) (n int) {
	buf := make([]byte, 1<<20)
next:
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, f := range frames {
			if !strings.Contains(g, f) {
				continue next
			}
		}
		n++
	}
	return n
}

// TestGetServesUnflushedWrites pins the read side of the durability contract
// beside TestScanServesUnflushedWrites: the memory commit precedes every
// acknowledgement, so a GET and a read-only ATOMIC serve a write whose flush
// is still held — on another connection, through the same one worker — while
// the PUT itself stays unanswered. The same holds between rounds: a read-only
// spanning ATOMIC, a round of its own that takes no flight, reads what a
// round still in doubt committed.
func TestGetServesUnflushedWrites(t *testing.T) {
	h := newHeldFlush(t, Config{})
	key := h.keys[1][0]
	h.armed.Store(true)
	h.c.dispatch(h.c.pointReq(wire.OpPut, 1, key, "unflushed"))
	<-h.holding

	other := newTestConn(h.s, 4)
	other.dispatch(other.pointReq(wire.OpGet, 2, key, ""))
	other.dispatch(other.atomicReq(3, wire.Sub{Kind: wire.SubGet, Key: key}))
	got := collect(t, other, 2)
	if r := got[2]; r.status != wire.StatusOK || string(r.value) != "unflushed" {
		t.Errorf("GET beside an unflushed PUT: %v %q", r.status, r.value)
	}
	if r := got[3]; r.status != wire.StatusOK || len(r.subs) != 1 || string(r.subs[0].Value) != "unflushed" {
		t.Errorf("read-only ATOMIC beside an unflushed PUT: %v %+v", r.status, r.subs)
	}

	// Round k's share on shard 1 sits behind the held flush: k is in doubt.
	h.c.dispatch(h.spanningReq(4, 1, []byte("in doubt")))
	h.waitRounds(t, 1) // its task set is closed: the read below is a round of its own
	other.dispatch(other.atomicReq(5, wire.Sub{Kind: wire.SubGet, Key: h.keys[0][1]}, wire.Sub{Kind: wire.SubGet, Key: h.keys[1][1]}))
	if r := collect(t, other, 1)[5]; r.status != wire.StatusOK || len(r.subs) != 2 ||
		string(r.subs[0].Value) != "in doubt" || string(r.subs[1].Value) != "in doubt" {
		t.Errorf("read-only spanning ATOMIC behind a round in doubt: %v %+v", r.status, r.subs)
	}
	unanswered(t, h.c, "while its flush was held")
	h.release <- nil
	for id, r := range collect(t, h.c, 2) {
		if r.status != wire.StatusOK {
			t.Fatalf("request %d after its flush: %v (%s)", id, r.status, r.value)
		}
	}
}

// TestCoordinatorNeverWaitsOnFlush: with one participant's flush held, the
// first spanning ATOMIC is in doubt and a second one still executes and
// appends — its PUT is readable on another connection, every participant's
// log advanced — because the coordinator handed the first round to the
// flushers. A third does not start until the first settles: two rounds in
// doubt is the bound, and waiting for a flight record is the coordinator's
// only wait — its goroutine is in no flush and no replication wait. On release
// the rounds are answered first round first.
func TestCoordinatorNeverWaitsOnFlush(t *testing.T) {
	h := newHeldFlush(t, Config{})
	appended := func() (n [3]uint64) {
		for i, sh := range h.shards {
			n[i] = sh.walAppends.Load()
		}
		return n
	}
	waitAppends := func(what string, want [3]uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); appended() != want; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: appends per shard %v, want %v", what, appended(), want)
			}
		}
	}
	other := newTestConn(h.s, 4)
	readable := func(id uint32, j int) bool {
		other.dispatch(other.pointReq(wire.OpGet, id, h.keys[2][j], ""))
		return collect(t, other, 1)[id].status == wire.StatusOK
	}

	h.armed.Store(true)
	h.c.dispatch(h.spanningReq(1, 0, []byte("first")))
	<-h.holding
	waitAppends("the first round", [3]uint64{1, 1, 1})
	h.c.dispatch(h.spanningReq(2, 1, []byte("second")))
	waitAppends("the second round, the first one's flush held", [3]uint64{2, 2, 2})
	if !readable(10, 1) {
		t.Error("the second round's PUT is not readable while the first round is in doubt")
	}
	h.c.dispatch(h.spanningReq(3, 2, []byte("third")))
	h.waitRounds(t, 3)
	unanswered(t, h.c, "with the first round's flush held")
	if got := appended(); got != [3]uint64{2, 2, 2} || readable(11, 2) {
		t.Errorf("the third round started with two rounds in doubt: appends per shard %v", got)
	}
	for _, wait := range []string{"wal.(*Log).Sync(", ".WaitReplicated("} {
		if n := serverGoroutines("(*roundCoordinator).loop(", wait); n != 0 {
			t.Errorf("%d coordinator goroutines inside %s", n, wait)
		}
	}
	if n := serverGoroutines("(*roundCoordinator).loop(", ".takeFlight("); n != 1 {
		t.Errorf("%d coordinator goroutines waiting for a flight record, want 1", n)
	}

	h.release <- nil
	for want := uint32(1); want <= 3; want++ {
		select {
		case r := <-h.c.out:
			if r.ID != want || r.Status != wire.StatusOK || r.Next != nil {
				t.Fatalf("answer %d (%v) arrived, want request %d OK: first round first", r.ID, r.Status, want)
			}
			h.c.recycle(r)
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered", want)
		}
	}
	// (The third round overlaps the second only if it took its flight before
	// the second one's last share was flushed.)
	if rs := h.s.RoundStats(); rs.Rounds != 3 || rs.Logged != 3 || rs.Overlapped < 1 || rs.InDoubtHigh != 2 || rs.FlightWaitNs == 0 {
		t.Errorf("round counters %+v; want 3 logged rounds, the second beside the first one's flush, 2 in doubt at most, a wait for a flight", rs)
	}
}

// TestNoWorkerWaitsOnFlush: with one worker per shard and the shard's flush
// held, a second and a third write group still execute — their values are
// readable, the log takes three appends — while the first is unanswered, and
// no worker goroutine is inside a flush, a round wait or a replication wait.
// On release the three answer oldest first after ONE further flush: the held
// one covered what was appended when it started, the next takes the rest.
func TestNoWorkerWaitsOnFlush(t *testing.T) {
	h := newHeldFlush(t, Config{})
	sh, keys := h.shards[1], h.keys[1]
	fsyncs, appends := sh.log.Fsyncs(), sh.walAppends.Load()
	h.armed.Store(true)
	for i, val := range []string{"first", "second", "third"} {
		h.putExecuted(t, h.c, 1, uint32(i+1), keys[i], val)
		if i == 0 {
			<-h.holding
		}
		if got, _, err := sh.testGet(context.Background(), h.th, keys[i]); err != nil || string(got) != val {
			t.Fatalf("key %d = %q, %v while the flush is held; want %q", keys[i], got, err, val)
		}
	}
	if n := sh.walAppends.Load() - appends; n != 3 {
		t.Fatalf("%d appends with the flush held, want 3", n)
	}
	unanswered(t, h.c, "while the shard's flush was held")
	if n := serverGoroutines("(*ackStage).flusher(", "wal.(*Log).Sync("); n != 1 {
		t.Errorf("%d flusher goroutines inside the held flush, want 1", n)
	}
	for _, wait := range []string{"wal.(*Log).Sync(", ".awaitRound(", ".WaitReplicated("} {
		if n := serverGoroutines("(*Server).worker(", wait); n != 0 {
			t.Errorf("%d worker goroutines inside %s", n, wait)
		}
	}

	h.release <- nil
	for want := uint32(1); want <= 3; {
		select {
		case r := <-h.c.out:
			for ; r != nil; r, want = r.Next, want+1 {
				if r.ID != want || r.Status != wire.StatusOK {
					t.Fatalf("answer %d (%v) arrived, want request %d OK: oldest first", r.ID, r.Status, want)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered", want)
		}
	}
	if n := sh.log.Fsyncs() - fsyncs; n != 2 {
		t.Errorf("%d flushes answered three groups, want 2: the held one and one further", n)
	}
	if st := h.s.AckStats(); st.Flushes != 2 || st.Groups != 3 || st.HighWater != 3 || st.Stalls != 0 {
		t.Errorf("stage counters %+v, want 2 flushes, 3 groups, high water 3, no stall", st)
	}
}

// TestAckListBoundsUnansweredOps: the completion list holds at most
// QueueDepth unanswered ops. With the flush held, the worker that would list
// one more waits for a release, the ring behind it fills, and from then on
// dispatch answers BUSY — however much is offered, nothing more is retained.
func TestAckListBoundsUnansweredOps(t *testing.T) {
	const depth = 4
	h := newHeldFlush(t, Config{QueueDepth: depth})
	sh, keys := h.shards[1], h.keys[1]
	h.armed.Store(true)
	id := uint32(0)
	put := func(c *conn) { // one group each: the worker outruns a lone dispatcher
		id++
		h.putExecuted(t, c, 1, id, keys[int(id)%len(keys)], "v")
	}
	put(h.c)
	<-h.holding
	for i := 1; i <= depth; i++ {
		put(h.c) // the last one executes, then stalls on the full list
	}
	for deadline := time.Now().Add(5 * time.Second); h.s.AckStats().Stalls != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no worker stalled on a full list: %+v", h.s.AckStats())
		}
	}
	for i := 0; i < sh.queue.Cap(); i++ {
		id++
		h.c.dispatch(h.c.pointReq(wire.OpPut, id, keys[0], "queued"))
	}
	accepted := id
	unanswered(t, h.c, "with the list full and the flush held")

	// Offered load beyond the bound is refused, not retained.
	flood := newTestConn(h.s, 64)
	val := strings.Repeat("x", 256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const offered = 50000
	for i := 0; i < offered; i++ {
		flood.dispatch(flood.pointReq(wire.OpPut, uint32(i), keys[0], val))
		if r := <-flood.out; r.Status != wire.StatusBusy {
			t.Fatalf("request %d past the bound: %v, want BUSY", i, r.Status)
		} else {
			flood.recycle(r)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("heap grew %d bytes over %d refused requests", grown, offered)
	}
	if n := sh.ringFull.Load(); n != offered {
		t.Errorf("ring-full meter %d, want %d", n, offered)
	}
	if st := h.s.AckStats(); st.HighWater != depth {
		t.Errorf("high water of unanswered ops %d, want the bound %d", st.HighWater, depth)
	}

	h.release <- nil
	for rid, r := range collect(t, h.c, int(accepted)) {
		if r.status != wire.StatusOK {
			t.Errorf("accepted request %d: %v (%s)", rid, r.status, r.value)
		}
	}
	if st := h.s.AckStats(); st.HighWater != depth {
		t.Errorf("high water of unanswered ops %d after the release, want the bound %d", st.HighWater, depth)
	}
}

// TestFlushFaultReleasesNothing: a flush that fails — here after the process
// image was copied mid-flush, the state a kill at that instant leaves —
// releases nothing as OK. Every listed group answers TX_FAULT, the shard turns
// read-only, and the crash image restarts with every acknowledged write (it
// promises nothing about the rest). A round's share is listed like a group:
// the round whose prepare sits on the failing log answers TX_FAULT too, and
// takes its other participants read-only with it.
func TestFlushFaultReleasesNothing(t *testing.T) {
	h := newHeldFlush(t, Config{})
	keys := h.keys[1]
	h.c.dispatch(h.c.pointReq(wire.OpPut, 1, keys[0], "acked"))
	if r := collect(t, h.c, 1)[1]; r.status != wire.StatusOK {
		t.Fatalf("seed PUT: %v (%s)", r.status, r.value)
	}
	h.armed.Store(true)
	h.putExecuted(t, h.c, 1, 2, keys[1], "lost?")
	<-h.holding
	h.putExecuted(t, h.c, 1, 3, keys[2], "lost?")
	h.putExecuted(t, h.c, 1, 4, keys[0], "lost?")
	h.c.dispatch(h.spanningReq(7, 3, []byte("lost?")))
	for deadline := time.Now().Add(5 * time.Second); h.s.RoundStats().Logged != 1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the spanning ATOMIC did not execute while shard 1's flush was held")
		}
	}

	killed := h.bootCopy(t, nil)
	if val, found, err := killed.shards[1].testGet(context.Background(), killed.th, keys[0]); err != nil || !found ||
		(string(val) != "acked" && string(val) != "lost?") {
		t.Errorf("crash image mid-flush: acknowledged key = %q found=%v err=%v", val, found, err)
	}

	h.release <- &faultinject.InjectedDiskFault{Op: faultinject.DiskSync}
	for id, r := range collect(t, h.c, 4) {
		if r.status != wire.StatusTxFault {
			t.Errorf("request %d after its flush failed: %v (%s), want TX_FAULT", id, r.status, r.value)
		}
	}
	for i, p := range h.shards {
		if !p.readOnly.Load() {
			t.Errorf("shard %d still accepts writes after the flush failed under a round it took part in", i)
		}
	}
	h.c.dispatch(h.c.pointReq(wire.OpPut, 5, keys[3], "refused"))
	if r := collect(t, h.c, 1)[5]; r.status != wire.StatusTxFault {
		t.Errorf("PUT on the read-only shard: %v, want TX_FAULT", r.status)
	}
	h.c.dispatch(h.c.pointReq(wire.OpGet, 6, keys[1], ""))
	if r := collect(t, h.c, 1)[6]; r.status != wire.StatusOK || string(r.value) != "lost?" {
		t.Errorf("GET on the read-only shard: %v %q, want the memory state", r.status, r.value)
	}
	if st := h.s.AckStats(); st.Groups != 4 {
		t.Errorf("%d groups released, want the acknowledged one and the three failed", st.Groups)
	}
}

// TestRoundGatesGroupAckFlusherLast is TestRoundGatesGroupAck in the other
// order: the group logs behind the prepare on the participant whose flush is
// the held one, so the round settles first and the shard's flusher — queued
// behind the held flush — is the one that releases it.
func TestRoundGatesGroupAckFlusherLast(t *testing.T) {
	h := twoShardRound(t)
	answered := h.putBehind(t, h.held)
	select {
	case <-answered:
		t.Fatal("a group was answered with its log's flush held")
	case <-time.After(50 * time.Millisecond):
	}
	h.release <- nil
	<-answered
	<-h.done
	for id, r := range collect(t, h.c, 2) {
		if r.status != wire.StatusOK {
			t.Errorf("request %d: status %v (%s)", id, r.status, r.value)
		}
	}
}

// TestForcedShutdownLeaksNothing: a Shutdown whose deadline expires with a
// flush still held — a PUT listed behind it, and two rounds in flight whose
// shares on that log wait for it — returns the context's error, and once the
// flush returns the drain it left behind completes — flushers stopped after
// the lists emptied, before the logs closed — with no server goroutine left.
func TestForcedShutdownLeaksNothing(t *testing.T) {
	entries := []string{"(*Server).worker(", "(*ackStage).flusher(", "(*roundCoordinator).loop(", "(*Server).retire("}
	// The baseline is whatever earlier tests' servers left running; theirs
	// may still be exiting, so sample until the counts hold still.
	var base [4]int
	for same := 0; same < 3; time.Sleep(time.Millisecond) {
		same++
		for i, e := range entries {
			if n := serverGoroutines(e); n != base[i] {
				base[i], same = n, 0
			}
		}
	}
	h := newHeldFlush(t, Config{})
	h.armed.Store(true)
	h.c.dispatch(h.c.pointReq(wire.OpPut, 1, h.keys[1][0], "held"))
	<-h.holding
	h.c.dispatch(h.spanningReq(2, 1, []byte("in flight")))
	h.waitRounds(t, 1)
	h.c.dispatch(h.spanningReq(3, 2, []byte("in flight")))
	for deadline := time.Now().Add(5 * time.Second); h.s.RoundStats().Logged != 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("two rounds did not get in flight behind the held flush: %+v", h.s.RoundStats())
		}
	}
	// One flusher per shard log (a goroutine that has not run yet shows no
	// entry frame: wait for all three).
	for deadline := time.Now().Add(5 * time.Second); serverGoroutines(entries[1])-base[1] != len(h.shards); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d flushers for %d durable shards", serverGoroutines(entries[1])-base[1], len(h.shards))
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := h.s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a flush held: %v, want the deadline", err)
	}
	h.release <- nil
	for id, r := range collect(t, h.c, 3) {
		if r.status != wire.StatusOK {
			t.Errorf("request %d, listed or in flight behind the held flush: %v (%s)", id, r.status, r.value)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		left := 0
		for i, e := range entries {
			left += serverGoroutines(e) - base[i]
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d server goroutines outlived a forced shutdown\n%s", left, buf[:runtime.Stack(buf, true)])
		}
	}
	if _, ok := wal.ReadCleanMarker(shardDataDir(h.s.cfg.DataDir, 1)); !ok {
		t.Error("the background drain did not close the logs cleanly")
	}
}

// TestSteadyStateDurablePutAllocs pins the acknowledgement stage's allocation
// cost: the completion list recycles the groups' op slices, so a durable write
// group — executed by a worker, flushed and answered by the flusher —
// allocates nothing in steady state.
func TestSteadyStateDurablePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	s, err := New(Config{Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 1, RequestTimeout: time.Hour,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := (*s.shards[0].subs.Load())[0]
	c := newTestConn(s, 4)
	w := newGroupWorker(s, sh, th)
	defer w.close()
	val := []byte(strings.Repeat("v", 64))
	batch := make([]task, 2)
	run := func() {
		batch[0] = mkTask(s, c, wire.OpPut, 1, 1, val, nil)
		batch[1] = mkTask(s, c, wire.OpPut, 2, 2, val, nil)
		w.run(batch)
		r := <-c.out
		if r.Status != wire.StatusOK || r.Next == nil {
			t.Fatalf("durable group: %+v", r)
		}
		c.recycle(r)
	}
	for i := 0; i < 32; i++ {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("steady-state durable write group allocates %.1f/op, want 0", n)
	}
}
