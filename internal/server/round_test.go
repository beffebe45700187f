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
		f.shards[i] = (*s.shards[i].subs.Load())[0]
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
	// rejection is metered. The refused page is metered on the least sub-shard.
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
		t.Errorf("full-queue rejections: %d on the batch's first participant, %d on the least sub-shard; want 1 and 1", a, p)
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
		w.close() // the drain barrier: returns once the list is empty
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

// TestSplitRacingQueuedRound splits a participant between the reader's plan
// and execution. Nothing re-plans: a queued spanning batch's round, and the
// group of a same-shard batch whose keys the split scattered, must each
// answer BUSY from the in-transaction route check — BUSY means nothing
// executed — and free what was pre-allocated on the old owner. The retry is
// planned against the new routing (the scattered batch as cross-shard) and
// commits.
func TestSplitRacingQueuedRound(t *testing.T) {
	s, err := New(Config{Shards: 2, ShardWords: 1 << 12, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	ctx := context.Background()
	th := s.rt.RegisterThread()
	defer th.Release()
	sh0, g1 := (*s.shards[0].subs.Load())[0], s.shards[1]
	root1 := (*g1.subs.Load())[0]

	// k0 lives on shard 0; k1 and kStay on shard 1, k1 among the keys a split
	// moves away and kStay among those it leaves.
	var k0, k1, kStay uint64
	for k := uint64(1); k0 == 0 || k1 == 0 || kStay == 0; k++ {
		switch {
		case s.Shard(k) == 0 && k0 == 0:
			k0 = k
		case s.Shard(k) == 1 && subMix(k)&1 != 0 && k1 == 0:
			k1 = k
		case s.Shard(k) == 1 && subMix(k)&1 == 0 && kStay == 0:
			kStay = k
		}
	}
	for _, p := range []struct {
		sh  *shard
		key uint64
	}{{sh0, k0}, {root1, k1}, {root1, kStay}} {
		if _, err := p.sh.testPut(ctx, th, p.key, []byte("seed")); err != nil {
			t.Fatalf("seed %d: %v", p.key, err)
		}
	}
	put := func(key uint64) wire.Sub { return wire.Sub{Kind: wire.SubPut, Key: key, Value: []byte("new")} }

	// Stall the coordinator at the front of the acquisition order: view 0 is
	// held exclusively, so the round blocks before it pauses anything.
	entered, release := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	go func() {
		held <- sh0.view.Exclusive(ctx, func(votm.Tx) error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered

	c := newTestConn(s, 4)
	words0 := sh0.view.AllocatedWords()
	c.dispatch(c.atomicReq(1, put(k0), put(k1)))
	for deadline := time.Now().Add(5 * time.Second); len(s.rounds.queue) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never took the queued task")
		}
	}
	// Planned as a same-shard batch: both keys are root1's until the split.
	scattered := mkAtomic(s, c, 2, put(k1), put(kStay))
	if len(scattered.batch.parts) != 1 || scattered.batch.parts[0] != root1 {
		t.Fatalf("the two shard-1 keys did not plan as a same-shard batch: %d participants", len(scattered.batch.parts))
	}
	if err := s.splitShard(g1, root1, "test"); err != nil {
		t.Fatalf("split: %v", err)
	}
	owner := g1.route(k1)
	if owner == root1 || g1.route(kStay) != root1 {
		t.Fatalf("the split did not scatter keys %d and %d", k1, kStay)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("exclusive section: %v", err)
	}
	if r := collect(t, c, 1)[1]; r.status != wire.StatusBusy {
		t.Fatalf("round over a stale plan: status %v (%s), want BUSY", r.status, r.value)
	}
	words1 := root1.view.AllocatedWords()
	w := newGroupWorker(s, root1, th)
	defer w.close()
	w.run([]task{scattered})
	if r := collect(t, c, 1)[2]; r.status != wire.StatusBusy {
		t.Fatalf("group member over a stale plan: status %v (%s), want BUSY", r.status, r.value)
	}
	for _, p := range []struct {
		sh  *shard
		key uint64
	}{{sh0, k0}, {owner, k1}, {root1, kStay}} {
		if val, found, err := p.sh.testGet(ctx, th, p.key); err != nil || !found || string(val) != "seed" {
			t.Errorf("key %d after BUSY: %q found=%v err=%v, want the seed", p.key, val, found, err)
		}
	}
	if a, b := sh0.view.AllocatedWords(), root1.view.AllocatedWords(); a != words0 || b != words1 {
		t.Errorf("allocated words: shard 0 %d -> %d, shard 1 root %d -> %d: a refused batch's pre-allocations leaked", words0, a, words1, b)
	}
	// The retries go through the reader again: both now plan as cross-shard.
	c.dispatch(c.atomicReq(3, put(k0), put(k1)))
	c.dispatch(c.atomicReq(4, put(k1), put(kStay)))
	for id, r := range collect(t, c, 2) {
		if r.status != wire.StatusOK {
			t.Fatalf("retry %d after the split: status %v (%s)", id, r.status, r.value)
		}
	}
	for _, p := range []struct {
		sh  *shard
		key uint64
	}{{sh0, k0}, {owner, k1}, {root1, kStay}} {
		if val, _, _ := p.sh.testGet(ctx, th, p.key); string(val) != "new" {
			t.Errorf("key %d = %q, want the retry's value", p.key, val)
		}
	}
	if rs := s.RoundStats(); rs.Tasks != 3 {
		t.Errorf("rounds carried %d tasks, want 3: the stale batch and both retries", rs.Tasks)
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

// TestRoundCarriesPages drives a private coordinator through the three shapes
// a SCAN page gives a round. A page between two transfers executes between
// them — task order is execution order — under the round's ONE pause, which
// the page widens to every sub-shard while a page-free round pauses only its
// union. Queued pages share one round, and stop sharing once their limits sum
// to one maximal page.
func TestRoundCarriesPages(t *testing.T) {
	f := newRoundFixture(t, Config{ShardWords: 1 << 12, WorkersPerShard: 1}, 1)
	rc := newTestCoordinator(t, f.s)
	a, b := f.keys[0][0], f.keys[1][0]
	transfer := func(id uint32, from, to uint64, d uint64) task {
		return mkAtomic(f.s, f.c, id,
			wire.Sub{Kind: wire.SubAdd, Key: from, Delta: -d}, wire.Sub{Kind: wire.SubAdd, Key: to, Delta: d})
	}
	page := func(id uint32, limit uint32) task { return queued(f.s, f.c, f.c.scanReq(id, 0, 1<<62, limit)) }

	// A page-free round pauses its union only: shard 2 is left alone.
	before := f.escalations()
	rc.roundOf(mkAtomic(f.s, f.c, 1,
		wire.Sub{Kind: wire.SubAdd, Key: a, Delta: 100}, wire.Sub{Kind: wire.SubAdd, Key: b, Delta: 100}))
	if r := collect(t, f.c, 1)[1]; r.status != wire.StatusOK {
		t.Fatalf("seed round: %v (%s)", r.status, r.value)
	}
	if got := f.escalations(); got != [3]int64{before[0] + 1, before[1] + 1, before[2]} {
		t.Errorf("page-free round: escalations %v -> %v, want shards 0 and 1 paused once and shard 2 not at all", before, got)
	}

	before = f.escalations()
	rc.roundOf(transfer(2, a, b, 10), page(3, 64), transfer(4, b, a, 5))
	got := collect(t, f.c, 3)
	for id, r := range got {
		if r.status != wire.StatusOK {
			t.Fatalf("mixed round: request %d: %v (%s)", id, r.status, r.value)
		}
	}
	seen := map[uint64]uint64{}
	for _, e := range got[3].entries {
		seen[e.Key] = binary.LittleEndian.Uint64(e.Value)
	}
	if len(seen) != 2 || seen[a] != 90 || seen[b] != 110 {
		t.Errorf("the page saw %v, want {%d: 90, %d: 110}: the transfer ahead of it and not the one behind", seen, a, b)
	}
	va, _ := f.counter(t, 0, a)
	vb, _ := f.counter(t, 1, b)
	if va != 95 || vb != 105 {
		t.Errorf("after the round: %d and %d, want 95 and 105", va, vb)
	}
	if got := f.escalations(); got != [3]int64{before[0] + 1, before[1] + 1, before[2] + 1} {
		t.Errorf("mixed round: escalations %v -> %v, want every shard paused exactly once", before, got)
	}
	if r, p := rc.nRounds.Load(), rc.nPages.Load(); r != 2 || p != 1 {
		t.Errorf("%d rounds carrying %d pages, want 2 and 1", r, p)
	}

	// Eight queued pages are one round.
	for id := uint32(10); id < 18; id++ {
		rc.submit(page(id, 32))
	}
	rc.next()
	for id, r := range collect(t, f.c, 8) {
		if r.status != wire.StatusOK || len(r.entries) != 2 {
			t.Errorf("queued page %d: %v, %d entries", id, r.status, len(r.entries))
		}
	}
	if r, p := rc.nRounds.Load(), rc.nPages.Load(); r != 3 || p != 9 {
		t.Errorf("%d rounds carrying %d pages after eight queued pages, want 3 and 9", r, p)
	}

	// Pages whose limits sum past one maximal page split across rounds: the
	// coordinator stops admitting once the sum reaches wire.MaxScanKeys.
	for id := uint32(20); id < 23; id++ {
		rc.submit(page(id, wire.MaxScanKeys/2))
	}
	rc.next()
	if r, p := rc.nRounds.Load(), rc.nPages.Load(); r != 4 || p != 11 {
		t.Errorf("%d rounds carrying %d pages, want the first two of three half-pages in round 4", r, p)
	}
	rc.next()
	if r, p := rc.nRounds.Load(), rc.nPages.Load(); r != 5 || p != 12 {
		t.Errorf("%d rounds carrying %d pages, want the third half-page in round 5", r, p)
	}
	collect(t, f.c, 3)
	if s := f.s.StatsAll(); s[0].Scans != 12 || s[1].Scans+s[2].Scans != 0 {
		t.Errorf("Scans = %d/%d/%d, want all 12 pages counted on the least sub-shard", s[0].Scans, s[1].Scans, s[2].Scans)
	}
}

// TestSteadyStateScanAllocs pins the page's allocation floor at zero, at 2
// shards and at 16: the per-participant merge scratch is pooled on the
// coordinator, the quiesce's handle slice on its thread, and the entries'
// values are copied into the buffer the recycled response keeps.
func TestSteadyStateScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	perPage := func(shards int) float64 {
		s, err := New(Config{Shards: shards, ShardWords: 1 << 12, WorkersPerShard: 1, RequestTimeout: time.Hour})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		shutdownServer(t, s)
		th := s.rt.RegisterThread()
		defer th.Release()
		val := bytes.Repeat([]byte{0xAB}, 64)
		for k := uint64(0); k < 64; k++ {
			sh := s.shards[s.Shard(k)].route(k)
			if _, err := sh.testPut(context.Background(), th, k, val); err != nil {
				t.Fatalf("seed %d: %v", k, err)
			}
		}
		c := newTestConn(s, 4)
		rc := newTestCoordinator(t, s)
		run := func() {
			rc.roundOf(queued(s, c, c.scanReq(1, 0, 1<<62, 32)))
			r := <-c.out
			if r.Status != wire.StatusOK || len(r.Entries) != 32 || !r.More {
				t.Fatalf("page at %d shards: %v, %d entries, more=%v", shards, r.Status, len(r.Entries), r.More)
			}
			c.recycle(r)
		}
		for i := 0; i < 8; i++ {
			run()
		}
		return testing.AllocsPerRun(50, run)
	}
	narrow, wide := perPage(2), perPage(16)
	if narrow != 0 || wide != 0 {
		t.Errorf("a 32-entry page allocates %.0f at 2 shards and %.0f at 16, want 0 at both", narrow, wide)
	}
	t.Logf("allocs per 32-entry page: %.0f at 2 shards, %.0f at 16", narrow, wide)
}

// TestRoundPausedTime: RoundStats.PausedNs reads 0 while only point ops run —
// they never quiesce a view — and grows with every SCAN page's round.
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
	if rs := s.RoundStats(); rs.Rounds != 0 || rs.PausedNs != 0 {
		t.Fatalf("after point ops alone: %d rounds, %d ns paused; want 0 and 0", rs.Rounds, rs.PausedNs)
	}
	var last uint64
	for id := uint32(100); id < 103; id++ {
		answer(c.scanReq(id, 0, 1<<62, 8))
		rs := s.RoundStats()
		if rs.Pages != uint64(id-99) || rs.PausedNs <= last {
			t.Fatalf("after page %d: %d pages, %d ns paused (was %d); want the paused time to grow", id-99, rs.Pages, rs.PausedNs, last)
		}
		last = rs.PausedNs
	}
}
