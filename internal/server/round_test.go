package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"votm"
	"votm/internal/faultinject"
	"votm/wire"
)

// roundFixture is a three-shard server with perShard keys per shard, a
// detached conn whose dispatch is the reader's real plan-and-queue path, and
// a runtime thread for reading state back.
type roundFixture struct {
	s      *Server
	shards [3]*shard
	keys   [3][]uint64
	c      *conn
	th     *votm.Thread
}

func newRoundFixture(t testing.TB, cfg Config, perShard int) *roundFixture {
	cfg.Shards = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := &roundFixture{s: s, c: newTestConn(s, 256)}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	for k := uint64(1); len(f.keys[0]) < perShard || len(f.keys[1]) < perShard || len(f.keys[2]) < perShard; k++ {
		if i := s.Shard(k); len(f.keys[i]) < perShard {
			f.keys[i] = append(f.keys[i], k)
		}
	}
	for i := range f.shards {
		f.shards[i] = s.shards[i]
	}
	f.th = s.rt.RegisterThread()
	t.Cleanup(f.th.Release)
	return f
}

// spanningReq builds a three-shard ATOMIC of PUTs on the j-th key of each
// shard; spanning is the same request as a planned task.
func (f *roundFixture) spanningReq(id uint32, j int, val []byte) *wire.Request {
	return f.c.atomicReq(id,
		wire.Sub{Kind: wire.SubPut, Key: f.keys[0][j], Value: val},
		wire.Sub{Kind: wire.SubPut, Key: f.keys[1][j], Value: val},
		wire.Sub{Kind: wire.SubPut, Key: f.keys[2][j], Value: val})
}

func (f *roundFixture) spanning(id uint32, j int, val []byte) task {
	return queued(f.s, f.c, f.spanningReq(id, j, val))
}

// waitRounds waits until the server's coordinator has started its n-th
// round: that round's task set is closed, so whatever is dispatched from now
// on queues behind it.
func (f *roundFixture) waitRounds(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.s.rounds.nRounds.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("the coordinator never started round %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSteadyStateRoundAllocs pins the round's allocation shape: every piece
// of round scratch lives on the coordinator and every batch's state in the
// server's free list, so a 32-task durable round allocates no more than a
// 2-task one — a task adds nothing in steady state.
func TestSteadyStateRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	const big = 32
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 14, WorkersPerShard: 1, RequestTimeout: time.Hour,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}, big)
	rc := newTestCoordinator(t, f.s)
	val := bytes.Repeat([]byte{0xEF}, 64)
	tasks := make([]task, 0, big)
	round := func(k int) func() {
		return func() {
			tasks = tasks[:0]
			for j := 0; j < k; j++ {
				tasks = append(tasks, f.spanning(uint32(j+1), j, val))
			}
			rc.roundOf(tasks...)
			for j := 0; j < k; j++ {
				r := <-f.c.out
				if r.Status != wire.StatusOK || len(r.Subs) != 3 {
					t.Fatalf("round of %d: %+v", k, r)
				}
				f.c.recycle(r)
			}
		}
	}
	for i := 0; i < 8; i++ {
		round(big)() // warm the scratch, the free list and the pools at full size
	}
	small := testing.AllocsPerRun(20, round(2))
	large := testing.AllocsPerRun(20, round(big))
	if large > small {
		t.Errorf("a %d-task round allocates %.0f, a 2-task round %.0f: allocations grow with the task count", big, large, small)
	}
	if rc.nRounds.Load() == 0 || rc.largest.Load() != big {
		t.Errorf("round counters: %d rounds, largest %d; want largest %d", rc.nRounds.Load(), rc.largest.Load(), big)
	}
	t.Logf("allocs per round: %.0f at 2 tasks, %.0f at %d", small, large, big)
}

// TestRoundQueueFullAnswersBusy stalls the coordinator inside a round (a
// participant's walMu is held), fills the round queue behind it and checks
// that the reader answers the next spanning ATOMIC and the next SCAN page BUSY
// at once, having executed nothing and kept nothing — and that every queued
// task still commits once the coordinator moves again.
func TestRoundQueueFullAnswersBusy(t *testing.T) {
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1, QueueDepth: 2,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}, 4)
	val := []byte("payload")
	f.shards[2].walMu.Lock()
	locked := true
	defer func() {
		if locked {
			f.shards[2].walMu.Unlock()
		}
	}()

	// The stalled round is a batch of DELETEs: it takes the walMus like any
	// write but pre-allocates nothing, so the allocator figures below are
	// still while the coordinator waits on shard 2.
	f.c.dispatch(f.c.atomicReq(1,
		wire.Sub{Kind: wire.SubDelete, Key: f.keys[0][0]},
		wire.Sub{Kind: wire.SubDelete, Key: f.keys[1][0]},
		wire.Sub{Kind: wire.SubDelete, Key: f.keys[2][0]}))
	f.waitRounds(t, 1)
	f.c.dispatch(f.spanningReq(2, 1, val)) // these two fill the queue
	f.c.dispatch(f.spanningReq(3, 2, val))
	var before [3]int
	for i, sh := range f.shards {
		before[i] = sh.view.AllocatedWords()
	}
	free := len(f.s.batchFree)
	// The refused batch's first participant is shard 1: that is where its
	// rejection is metered. The refused page is metered on shard 0.
	f.c.dispatch(f.c.atomicReq(4,
		wire.Sub{Kind: wire.SubPut, Key: f.keys[1][3], Value: val},
		wire.Sub{Kind: wire.SubPut, Key: f.keys[2][3], Value: val}))
	f.c.dispatch(f.c.scanReq(5, 0, 1<<62, 8))
	for id, r := range collect(t, f.c, 2) {
		if r.status != wire.StatusBusy {
			t.Fatalf("request %d against a full round queue: status %v, want BUSY", id, r.status)
		}
	}
	for i, sh := range f.shards {
		if n := sh.view.AllocatedWords(); n != before[i] {
			t.Errorf("shard %d: allocated words %d -> %d: the refused batch left something behind", i, before[i], n)
		}
	}
	if n := len(f.s.batchFree); n != max(free, 1) {
		t.Errorf("batch free list %d -> %d: the refused batch's plan was not released", free, n)
	}
	if a, p := f.shards[1].ringFull.Load(), f.shards[0].ringFull.Load(); a != 1 || p != 1 {
		t.Errorf("full-queue rejections: %d on the batch's first participant, %d on shard 0; want 1 and 1", a, p)
	}
	if n := f.shards[0].scans.Load(); n != 0 {
		t.Errorf("the refused page was counted as served (%d)", n)
	}

	f.shards[2].walMu.Unlock()
	locked = false
	for id, r := range collect(t, f.c, 3) {
		if r.status != wire.StatusOK {
			t.Errorf("queued request %d: status %v (%s)", id, r.status, r.value)
		}
	}
	for i, sh := range f.shards {
		if _, found, _ := sh.testGet(context.Background(), f.th, f.keys[i][3]); found {
			t.Errorf("shard %d holds the BUSY batch's key", i)
		}
		if _, found, _ := sh.testGet(context.Background(), f.th, f.keys[i][2]); !found {
			t.Errorf("shard %d lost a queued batch's key", i)
		}
	}
}

// TestShutdownAnswersQueuedRounds drains a server whose round queue holds
// ATOMICs and SCAN pages behind a stalled round: Shutdown must wait, every
// queued task must be answered, and the coordinator goroutine must be gone
// when it returns.
func TestShutdownAnswersQueuedRounds(t *testing.T) {
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}, 4)
	val := []byte("payload")
	f.shards[1].walMu.Lock()
	f.c.dispatch(f.spanningReq(1, 0, val))
	f.waitRounds(t, 1)
	f.c.dispatch(f.spanningReq(2, 1, val))
	f.c.dispatch(f.c.scanReq(3, 0, 1<<62, 64))
	f.c.dispatch(f.spanningReq(4, 2, val))
	f.c.dispatch(f.c.scanReq(5, 0, 1<<62, 64))

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- f.s.Shutdown(ctx)
	}()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with five queued tasks unanswered", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.shards[1].walMu.Unlock()
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := collect(t, f.c, 5)
	for id, r := range got {
		if r.status != wire.StatusOK {
			t.Errorf("request %d: status %v (%s)", id, r.status, r.value)
		}
	}
	// Task order is execution order: each page sees the batches ahead of it.
	if a, b := len(got[3].entries), len(got[5].entries); a != 6 || b != 9 {
		t.Errorf("the queued pages returned %d and %d entries, want 6 and 9", a, b)
	}
	select {
	case <-f.s.rounds.done:
	default:
		t.Error("the coordinator goroutine outlived Shutdown")
	}
}

// bootCopy starts a second server on a copy of f's data directory — what a
// SIGKILL at this instant would leave — after cut (if any) edited the copy.
func (f *roundFixture) bootCopy(t *testing.T, cut func(dir string)) *roundFixture {
	t.Helper()
	cfg := f.s.cfg
	cfg.DataDir, cfg.DiskFaultHook = t.TempDir(), nil
	copyTree(t, f.s.cfg.DataDir, cfg.DataDir)
	if cut != nil {
		cut(cfg.DataDir)
	}
	return newRoundFixture(t, cfg, 1)
}

// emptyLog truncates shard i's one log segment under dir to nothing.
func emptyLog(t *testing.T, dir string, i int) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(shardDataDir(dir, i), "*.seg"))
	if len(segs) != 1 || os.Truncate(segs[0], 0) != nil {
		t.Fatalf("cannot cut shard %d's log: %v", i, segs)
	}
}

// counter reads key on shard i as an ADD counter (found = false: no key).
func (f *roundFixture) counter(t *testing.T, i int, key uint64) (uint64, bool) {
	t.Helper()
	val, found, err := f.shards[i].testGet(context.Background(), f.th, key)
	if err != nil || (found && len(val) != 8) {
		t.Fatalf("key %d: %q, %v", key, val, err)
	}
	if !found {
		return 0, false
	}
	return binary.LittleEndian.Uint64(val), true
}

// heldRound is a durable round stopped inside its one flush: the fault hook
// holds the first DiskSync it sees.
type heldRound struct {
	*roundFixture
	rc      *roundCoordinator
	release chan error    // the held flush's verdict
	done    chan struct{} // closed when the round returned
	fsyncs  [3]uint64     // per shard, before the round

	// Set by twoShardRound: the participant whose flush is held, the other
	// one, and the key the round PUT on each shard.
	held, b int
	key     [2]uint64
}

// newHeldRound runs the tasks build returns as one round and returns once
// its flush is held: every prepare is appended, no walMu is held, nothing is
// annotated or answered, and the coordinator is free to build the next round
// (h.rc.startRound).
func newHeldRound(t *testing.T, build func(f *roundFixture) []task) *heldRound {
	var armed atomic.Bool
	h := &heldRound{release: make(chan error, 1), done: make(chan struct{})}
	started := make(chan struct{})
	holding := make(chan struct{})
	h.roundFixture = newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
		DiskFaultHook: func(op faultinject.DiskOp) error {
			if op == faultinject.DiskSync && armed.CompareAndSwap(true, false) {
				close(holding)
				return <-h.release
			}
			return nil
		},
	}, 2)
	t.Cleanup(func() {
		select {
		case h.release <- nil:
		default:
		}
	})
	h.rc = newTestCoordinator(t, h.s)
	for i, sh := range h.shards {
		h.fsyncs[i] = sh.log.Fsyncs()
	}
	tasks := build(h.roundFixture)
	armed.Store(true)
	go func() {
		defer close(h.done)
		h.rc.startRound(tasks...)
		close(started)
		h.rc.idle()
	}()
	<-holding
	<-started
	return h
}

// twoShardRound holds a round of one ATOMIC PUTting a key on shards 0 and 1
// and works out which of the two participants' flushes is the held one.
func twoShardRound(t *testing.T) *heldRound {
	h := newHeldRound(t, func(f *roundFixture) []task {
		return []task{mkAtomic(f.s, f.c, 1,
			wire.Sub{Kind: wire.SubPut, Key: f.keys[0][0], Value: []byte("round")},
			wire.Sub{Kind: wire.SubPut, Key: f.keys[1][0], Value: []byte("round")})}
	})
	h.key = [2]uint64{h.keys[0][0], h.keys[1][0]}
	// The hook runs before the fsync is counted: the participant whose count
	// moves is the one whose flush went through.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if h.shards[0].log.Fsyncs() != h.fsyncs[0] {
			h.held, h.b = 1, 0
			return h
		}
		if h.shards[1].log.Fsyncs() != h.fsyncs[1] {
			h.held, h.b = 0, 1
			return h
		}
		if time.Now().After(deadline) {
			t.Fatal("neither participant's flush went through")
		}
	}
}

// TestRoundSharesDependentTasks checks that a round is atomic as a whole:
// ADDs on keys an earlier task of the same round wrote share the round —
// their post-images embed the round-mates' effects — each participant logs
// ONE prepare, the round takes ONE flush, and a crash inside the flush
// recovers every task (all prepares reached the disk) or, with one
// participant's prepare cut away, none.
func TestRoundSharesDependentTasks(t *testing.T) {
	var k0, k1 uint64
	h := newHeldRound(t, func(f *roundFixture) []task {
		k0, k1 = f.keys[0][0], f.keys[1][0]
		add := func(id uint32, d uint64) task {
			return mkAtomic(f.s, f.c, id,
				wire.Sub{Kind: wire.SubAdd, Key: k0, Delta: d}, wire.Sub{Kind: wire.SubAdd, Key: k1, Delta: d})
		}
		put := func(id uint32) task {
			return mkAtomic(f.s, f.c, id,
				wire.Sub{Kind: wire.SubPut, Key: f.keys[0][1], Value: []byte("blind")}, wire.Sub{Kind: wire.SubPut, Key: f.keys[2][0], Value: []byte("blind")})
		}
		return []task{add(1, 1), add(2, 10), put(3), add(4, 100), put(5)}
	})
	whole := h.bootCopy(t, nil)
	for i, key := range []uint64{k0, k1} {
		if v, _ := whole.counter(t, i, key); v != 111 {
			t.Errorf("crash image, all prepared: key %d = %d, want 111", key, v)
		}
	}
	// Shard 1's log held nothing before the round: cut it all away.
	none := h.bootCopy(t, func(dir string) { emptyLog(t, dir, 1) })
	for i, key := range []uint64{k0, k1, h.keys[2][0]} {
		if _, found, _ := none.shards[i].testGet(context.Background(), none.th, key); found {
			t.Errorf("crash image without shard 1's prepare: key %d survived on shard %d", key, i)
		}
	}

	h.release <- nil
	<-h.done
	if r, l := h.rc.nRounds.Load(), h.rc.nLogged.Load(); r != 1 || l != 1 {
		t.Fatalf("%d rounds, %d logged; want one of each", r, l)
	}
	got := collect(t, h.c, 5)
	for id, want := range map[uint32]uint64{1: 1, 2: 11, 4: 111} {
		if r := got[id]; r.status != wire.StatusOK || len(r.subs) != 2 || r.subs[0].Sum != want || r.subs[1].Sum != want {
			t.Errorf("ADD %d: %+v, want both sums %d (arrival order kept)", id, r, want)
		}
	}
	var prepares, appends uint64
	for _, sh := range h.shards {
		prepares, appends = prepares+sh.xsPrepares.Load(), appends+sh.walAppends.Load()
	}
	if prepares != 5+3+2 || appends != 3 {
		t.Errorf("%d (task, participant) shares in %d appends; want 10 shares in one prepare per participant", prepares, appends)
	}
	for i, sh := range h.shards {
		if sh.owed.Load() == 0 {
			t.Errorf("shard %d owes no annotation after a durable round", i)
		}
	}
}

// putBehind runs a one-PUT write group on participant which (h.b: the un-held
// one), on top of the round's PUT: it lands on the completion list, and the
// returned channel closes when it has been answered.
func (h *heldRound) putBehind(t *testing.T, which int) chan struct{} {
	t.Helper()
	return h.putOn(t, which, 2, h.key[which])
}

// listedGroups counts the write groups on sh's completion list, leaving out
// the shares rounds listed there.
func listedGroups(sh *shard) (n int) {
	sh.ack.mu.Lock()
	defer sh.ack.mu.Unlock()
	for _, g := range sh.ack.list {
		if g.round == nil {
			n++
		}
	}
	return n
}

// putOn runs request id, a one-PUT write group, on shard i behind whatever
// the rounds in flight appended there.
func (h *heldRound) putOn(t *testing.T, i int, id uint32, key uint64) chan struct{} {
	t.Helper()
	sh := h.shards[i]
	th := h.s.rt.RegisterThread()
	w := newGroupWorker(h.s, sh, th)
	appends, listed := sh.walAppends.Load(), listedGroups(sh)
	ran := make(chan struct{})
	go func() {
		w.run([]task{mkTask(h.s, h.c, wire.OpPut, id, key, []byte("group"), nil)})
		close(ran)
	}()
	// No walMu is held across the round's flush: the group executes and
	// appends while the flush is still held.
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a participant's group cannot run while the round's flush is outstanding")
	}
	if a, l := sh.walAppends.Load()-appends, listedGroups(sh)-listed; a != 1 || l != 1 {
		t.Fatalf("the group did not append behind the prepare: %d appends, %d listed", a, l)
	}
	answered := make(chan struct{})
	go func() {
		w.testClose() // the drain barrier: returns once the list is empty
		th.Release()
		close(answered)
	}()
	return answered
}

// TestRoundGatesGroupAck: a write group on one participant, appended behind
// the round's prepare and flushed, is not answered while ANOTHER
// participant's flush of that round is outstanding.
func TestRoundGatesGroupAck(t *testing.T) {
	h := twoShardRound(t)
	answered := h.putBehind(t, h.b)
	select {
	case <-answered:
		t.Fatal("a group behind an in-doubt prepare was answered before the round was durable everywhere")
	case <-h.done:
		t.Fatal("the round returned with a participant's flush held")
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
	if as := h.s.AckStats(); as.Gated != 1 {
		t.Errorf("AckStats.Gated = %d, want the one gated group", as.Gated)
	}
	// Replay order = memory order: the group's value wins in a crash image.
	re := h.bootCopy(t, nil)
	if val, _, _ := re.shards[h.b].testGet(context.Background(), re.th, h.key[h.b]); string(val) != "group" {
		t.Errorf("crash image: key %d = %q, want the group's value", h.key[h.b], val)
	}
}

// TestRoundGatesCapture: a state capture (snapshot, bootstrap, handoff) of an
// in-doubt shard waits the round out, then captures a state whose sequence
// covers the prepare.
func TestRoundGatesCapture(t *testing.T) {
	h := twoShardRound(t)
	sh := h.shards[h.b]
	prepSeq := sh.log.NextSeq() - 1
	captured := make(chan error, 1)
	go func() {
		_, err := h.s.snapshotShard(sh, h.th)
		captured <- err
	}()
	select {
	case err := <-captured:
		t.Fatalf("snapshot of an in-doubt shard returned (%v) before the round was durable", err)
	case <-time.After(50 * time.Millisecond):
	}
	h.release <- nil
	if err := <-captured; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	<-h.done
	if got := sh.snapSeq.Load(); got < prepSeq {
		t.Errorf("snapshot seq %d does not cover the prepare at %d", got, prepSeq)
	}
	if r := collect(t, h.c, 1)[1]; r.status != wire.StatusOK {
		t.Errorf("round: status %v (%s)", r.status, r.value)
	}
}

// TestRoundFlushFaultVoidsGatedGroup: failing the held flush answers the
// round's writers and the group behind the prepare TX_FAULT and flips both
// participants read-only — the group's flush itself succeeded.
func TestRoundFlushFaultVoidsGatedGroup(t *testing.T) {
	h := twoShardRound(t)
	answered := h.putBehind(t, h.b)
	h.release <- &faultinject.InjectedDiskFault{Op: faultinject.DiskSync}
	<-answered
	<-h.done
	for id, r := range collect(t, h.c, 2) {
		if r.status != wire.StatusTxFault {
			t.Errorf("request %d: status %v (%s), want TX_FAULT", id, r.status, r.value)
		}
	}
	for _, i := range []int{h.held, h.b} {
		if sh := h.shards[i]; !sh.readOnly.Load() || sh.owed.Load() != 0 {
			t.Errorf("participant %d after the round's flush failed: read-only %v, owes annotation %d", i, sh.readOnly.Load(), sh.owed.Load())
		}
	}
	if _, _, err := h.s.captureShardState(h.shards[h.b], h.th, nil); err == nil {
		t.Error("a shard left in doubt by a failed round was captured")
	}
}

// TestRoundFlushFaultCascades: round k = {held, b} sits in its held flush and
// round k+1 = {b, 2} is already appended behind it when that flush fails. The
// fault is sticky from k upward: both rounds' writers, the group logged
// between the prepares on b and the group behind P_k+1 on shard 2 — which
// never saw P_k and whose own flushes all succeeded — answer TX_FAULT, all
// three participants go read-only and owe nothing. The disk image such a
// failure leaves — the held log without its prepare — restarts with neither
// round: k+1 lists k's participants, so it aborts on shard 2 as well.
func TestRoundFlushFaultCascades(t *testing.T) {
	h := twoShardRound(t)
	betweenPrepares := h.putBehind(t, h.b)
	k1b, k1c := h.keys[h.b][1], h.keys[2][0]
	h.rc.startRound(mkAtomic(h.s, h.c, 3,
		wire.Sub{Kind: wire.SubPut, Key: k1b, Value: []byte("next round")},
		wire.Sub{Kind: wire.SubPut, Key: k1c, Value: []byte("next round")}))
	if rs := h.rc.nOverlapped.Load(); rs != 1 || h.shards[2].doubt == 0 {
		t.Fatalf("round k+1 did not execute and append beside round k's held flush: %d overlapped, shard 2 doubt %d", rs, h.shards[2].doubt)
	}
	behindNext := h.putOn(t, 2, 4, h.keys[2][1])
	unanswered(t, h.c, "with round k's flush held")

	h.release <- &faultinject.InjectedDiskFault{Op: faultinject.DiskSync}
	<-betweenPrepares
	<-behindNext
	<-h.done
	for id, r := range collect(t, h.c, 4) {
		if r.status != wire.StatusTxFault {
			t.Errorf("request %d: status %v (%s), want TX_FAULT", id, r.status, r.value)
		}
	}
	for i, sh := range h.shards {
		if !sh.readOnly.Load() || sh.owed.Load() != 0 {
			t.Errorf("participant %d after round k's flush failed: read-only %v, owes annotation %d", i, sh.readOnly.Load(), sh.owed.Load())
		}
	}
	if _, _, err := h.s.captureShardState(h.shards[2], h.th, nil); err == nil {
		t.Error("a shard left in doubt by a round built on a failed one was captured")
	}
	// A later round is refused on every one of them before it executes.
	h.rc.roundOf(mkAtomic(h.s, h.c, 5,
		wire.Sub{Kind: wire.SubPut, Key: h.keys[0][1], Value: []byte("late")},
		wire.Sub{Kind: wire.SubPut, Key: h.keys[2][1], Value: []byte("late")}))
	if r := collect(t, h.c, 1)[5]; r.status != wire.StatusTxFault {
		t.Errorf("a round on read-only participants: status %v (%s), want TX_FAULT", r.status, r.value)
	}

	// The held participant's log held nothing before round k.
	re := h.bootCopy(t, func(dir string) { emptyLog(t, dir, h.held) })
	for _, k := range []struct {
		shard int
		key   uint64
	}{{0, h.key[0]}, {1, h.key[1]}, {h.b, k1b}, {2, k1c}, {2, h.keys[2][1]}} {
		if val, found, _ := re.shards[k.shard].testGet(context.Background(), re.th, k.key); found {
			t.Errorf("crash image without round k's held prepare: key %d on shard %d = %q, want neither round", k.key, k.shard, val)
		}
	}
}

// escalations reads every fixture shard's escalation count: AtomicAll accounts
// one on each view it paused.
func (f *roundFixture) escalations() (n [3]int64) {
	for i, sh := range f.shards {
		n[i] = int64(sh.view.Snapshot().Totals.Escalations)
	}
	return n
}

// TestRoundCarriesPages drives a private coordinator through a queue that
// mixes SCAN pages with cross-shard transfers. A page is no round's task: it
// ends the round being built and is served after it, so it sees the transfers
// queued ahead of it and none behind, and — read by a validated read that
// pauses nothing — it leaves every view's escalation count where it was.
// Rounds count only batches; queued pages are served one by one.
func TestRoundCarriesPages(t *testing.T) {
	f := newRoundFixture(t, Config{ShardWords: 1 << 12, WorkersPerShard: 1}, 1)
	rc := newTestCoordinator(t, f.s)
	a, b := f.keys[0][0], f.keys[1][0]
	transfer := func(id uint32, from, to uint64, d uint64) task {
		return mkAtomic(f.s, f.c, id,
			wire.Sub{Kind: wire.SubAdd, Key: from, Delta: -d}, wire.Sub{Kind: wire.SubAdd, Key: to, Delta: d})
	}
	page := func(id uint32, limit uint32) task { return queued(f.s, f.c, f.c.scanReq(id, 0, 1<<62, limit)) }

	// A round pauses its union only: shard 2 is left alone.
	before := f.escalations()
	rc.roundOf(mkAtomic(f.s, f.c, 1,
		wire.Sub{Kind: wire.SubAdd, Key: a, Delta: 100}, wire.Sub{Kind: wire.SubAdd, Key: b, Delta: 100}))
	if r := collect(t, f.c, 1)[1]; r.status != wire.StatusOK {
		t.Fatalf("seed round: %v (%s)", r.status, r.value)
	}
	if got := f.escalations(); got != [3]int64{before[0] + 1, before[1] + 1, before[2]} {
		t.Errorf("round: escalations %v -> %v, want shards 0 and 1 paused once and shard 2 not at all", before, got)
	}

	// page, transfer, page, transfer: the first page sees the seed alone, the
	// second the first transfer and not the one behind it.
	before = f.escalations()
	for _, tk := range []task{page(2, 64), transfer(3, a, b, 10), page(4, 64), transfer(5, b, a, 5)} {
		if !rc.submit(tk) {
			t.Fatal("round queue full")
		}
	}
	rc.next()
	rc.idle()
	got := collect(t, f.c, 4)
	for id, r := range got {
		if r.status != wire.StatusOK {
			t.Fatalf("mixed queue: request %d: %v (%s)", id, r.status, r.value)
		}
	}
	for _, want := range []struct {
		id     uint32
		va, vb uint64
	}{{2, 100, 100}, {4, 90, 110}} {
		seen := map[uint64]uint64{}
		for _, e := range got[want.id].entries {
			seen[e.Key] = binary.LittleEndian.Uint64(e.Value)
		}
		if len(seen) != 2 || seen[a] != want.va || seen[b] != want.vb {
			t.Errorf("page %d saw %v, want {%d: %d, %d: %d}: the transfers ahead of it and none behind",
				want.id, seen, a, want.va, b, want.vb)
		}
	}
	va, _ := f.counter(t, 0, a)
	vb, _ := f.counter(t, 1, b)
	if va != 95 || vb != 105 {
		t.Errorf("after the queue: %d and %d, want 95 and 105", va, vb)
	}
	if got := f.escalations(); got != [3]int64{before[0] + 2, before[1] + 2, before[2]} {
		t.Errorf("mixed queue: escalations %v -> %v, want shards 0 and 1 paused once per transfer and the pages pausing nothing",
			before, got)
	}
	if rs := rc.stats(); rs.Rounds != 3 || rs.Tasks != 3 || rs.Pages != 2 || rs.PageTries != 2 || rs.PageFallbacks != 0 {
		t.Errorf("stats %+v, want 3 rounds of 3 batches and 2 pages read at the first try", rs)
	}

	// Eight queued pages are served one by one, in no round.
	for id := uint32(10); id < 18; id++ {
		rc.submit(page(id, 32))
	}
	rc.next()
	for id, r := range collect(t, f.c, 8) {
		if r.status != wire.StatusOK || len(r.entries) != 2 {
			t.Errorf("queued page %d: %v, %d entries", id, r.status, len(r.entries))
		}
	}
	if rs := rc.stats(); rs.Rounds != 3 || rs.Pages != 10 {
		t.Errorf("after eight queued pages: %d rounds, %d pages; want 3 and 10", rs.Rounds, rs.Pages)
	}
	if s := f.s.StatsAll(); s[0].Scans != 10 || s[1].Scans+s[2].Scans != 0 {
		t.Errorf("Scans = %d/%d/%d, want all 10 pages counted on shard 0", s[0].Scans, s[1].Scans, s[2].Scans)
	}
}

// TestSteadyStateScanAllocs pins the page's allocation floor at zero, at 2
// shards and at 16, on the reader's page path (dispatch, the connection
// having no round task out) and on the coordinator's (servePage): the views
// are the server's, the per-shard merge scratch is pooled on each executor's
// pager, the validated read's handles on its thread, and the entries' values
// are copied into the buffer the recycled response keeps.
func TestSteadyStateScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	perPage := func(shards int, reader bool) float64 {
		s, err := New(Config{Shards: shards, ShardWords: 1 << 12, WorkersPerShard: 1, RequestTimeout: time.Hour})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		shutdownServer(t, s)
		th := s.rt.RegisterThread()
		defer th.Release()
		val := bytes.Repeat([]byte{0xAB}, 64)
		for k := uint64(0); k < 64; k++ {
			sh := s.shards[s.Shard(k)]
			if _, err := sh.testPut(context.Background(), th, k, val); err != nil {
				t.Fatalf("seed %d: %v", k, err)
			}
		}
		c := newTestConn(s, 4)
		rc := newTestCoordinator(t, s)
		run := func() {
			if reader {
				c.dispatch(c.scanReq(1, 0, 1<<62, 32))
			} else {
				tk := queued(s, c, c.scanReq(1, 0, 1<<62, 32))
				c.inRound.Add(1) // as submit counts it
				rc.servePage(tk)
			}
			r := <-c.out
			if r.Status != wire.StatusOK || len(r.Entries) != 32 || !r.More {
				t.Fatalf("page at %d shards: %v, %d entries, more=%v", shards, r.Status, len(r.Entries), r.More)
			}
			c.recycle(r)
		}
		for i := 0; i < 8; i++ {
			run()
		}
		n := testing.AllocsPerRun(50, run)
		// The reader's pages count on the server, the test coordinator's on it.
		if onReader, onRC := s.RoundStats().Pages, rc.stats().Pages; (onReader == 0) == reader || (onRC == 0) != reader {
			t.Fatalf("reader=%v: the readers served %d pages, the test coordinator %d", reader, onReader, onRC)
		}
		return n
	}
	for _, reader := range []bool{true, false} {
		narrow, wide := perPage(2, reader), perPage(16, reader)
		if narrow != 0 || wide != 0 {
			t.Errorf("reader=%v: a 32-entry page allocates %.0f at 2 shards and %.0f at 16, want 0 at both", reader, narrow, wide)
		}
		t.Logf("reader=%v: allocs per 32-entry page: %.0f at 2 shards, %.0f at 16", reader, narrow, wide)
	}
}

// TestRoundPausedTime: RoundStats.PausedNs reads 0 while only point ops and
// SCAN pages run — neither quiesces a view: a page's validated read pauses
// nothing — and grows for a page that a concurrent Exclusive writer forces
// to fall back to a quiesce. The reader serves the page inside dispatch, so
// the fallen-back one is dispatched from a goroutine standing in for the
// reader, which waits in the quiesce until the section ends.
func TestRoundPausedTime(t *testing.T) {
	s, err := New(Config{Shards: 2, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	c := newTestConn(s, 4)
	answer := func(req *wire.Request) {
		t.Helper()
		c.dispatch(req)
		r := <-c.out
		if r.Status != wire.StatusOK {
			t.Fatalf("%v: %v (%s)", r.Op, r.Status, r.Value)
		}
		c.recycle(r)
	}
	for k := uint64(0); k < 16; k++ {
		answer(c.pointReq(wire.OpPut, uint32(k+1), k, "v"))
		answer(c.pointReq(wire.OpGet, uint32(k+1), k, ""))
	}
	for id := uint32(100); id < 103; id++ {
		answer(c.scanReq(id, 0, 1<<62, 8))
	}
	if rs := s.RoundStats(); rs.Rounds != 0 || rs.Pages != 3 || rs.PageFallbacks != 0 || rs.PausedNs != 0 {
		t.Fatalf("after point ops and three pages: %+v; want 0 rounds, 3 pages, no fallback and 0 ns paused", rs)
	}

	// An Exclusive section held on one shard's view: every validated read is
	// refused, so the page falls back and its quiesce waits for the section.
	view := s.shards[0].view
	inside, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		done <- view.Exclusive(context.Background(), func(votm.Tx) error {
			close(inside)
			<-release
			return nil
		})
	}()
	<-inside
	page, dispatched := c.scanReq(200, 0, 1<<62, 8), make(chan struct{})
	go func() {
		defer close(dispatched)
		c.dispatch(page)
	}()
	for s.RoundStats().PageFallbacks == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(2 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Exclusive: %v", err)
	}
	r := <-c.out
	<-dispatched
	if r.Status != wire.StatusOK || len(r.Entries) != 8 {
		t.Fatalf("fallen-back page: %v, %d entries", r.Status, len(r.Entries))
	}
	c.recycle(r)
	rs := s.RoundStats()
	if rs.Pages != 4 || rs.PageFallbacks != 1 || rs.PageTries != 3+readTries || rs.PausedNs < uint64(2*time.Millisecond) {
		t.Errorf("after the fallen-back page: %+v; want 4 pages, 1 fallback after %d tries, and the wait for the section paused", rs, readTries)
	}
}
