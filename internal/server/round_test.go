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

// roundFixture is a three-shard server with four keys per shard, a detached
// conn and a worker on shard 0 — the coordinating shard of every spanning
// batch it builds.
type roundFixture struct {
	s      *Server
	shards [3]*shard
	keys   [3][]uint64
	c      *conn
	w      *groupWorker
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
	th := s.rt.RegisterThread()
	f.w = newGroupWorker(s, f.shards[0], th)
	t.Cleanup(func() {
		f.w.close()
		th.Release()
	})
	return f
}

// spanning builds a three-shard ATOMIC of PUTs on the j-th key of each shard.
func (f *roundFixture) spanning(id uint32, j int, val []byte) task {
	return mkAtomic(f.s, f.c, id,
		wire.Sub{Kind: wire.SubPut, Key: f.keys[0][j], Value: val},
		wire.Sub{Kind: wire.SubPut, Key: f.keys[1][j], Value: val},
		wire.Sub{Kind: wire.SubPut, Key: f.keys[2][j], Value: val})
}

// waitRounds waits until the server's coordinator has started its n-th
// round: that round's task set is closed, so whatever is handed off from now
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
				r.Release()
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
// that the next hand-off answers BUSY at once, having executed nothing — and
// that every queued task still commits once the coordinator moves again.
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
	f.w.run([]task{mkAtomic(f.s, f.c, 1,
		wire.Sub{Kind: wire.SubDelete, Key: f.keys[0][0]},
		wire.Sub{Kind: wire.SubDelete, Key: f.keys[1][0]},
		wire.Sub{Kind: wire.SubDelete, Key: f.keys[2][0]})})
	f.waitRounds(t, 1)
	f.w.run([]task{f.spanning(2, 1, val), f.spanning(3, 2, val)}) // fills the queue
	var before [3]int
	for i, sh := range f.shards {
		before[i] = sh.view.AllocatedWords()
	}
	f.w.run([]task{f.spanning(4, 3, val)})
	if r := collect(t, f.c, 1)[4]; r.status != wire.StatusBusy {
		t.Fatalf("hand-off to a full round queue: status %v, want BUSY", r.status)
	}
	for i, sh := range f.shards {
		if n := sh.view.AllocatedWords(); n != before[i] {
			t.Errorf("shard %d: allocated words %d -> %d: the refused batch left something behind", i, before[i], n)
		}
	}
	if n := f.shards[0].ringFull.Load(); n != 1 {
		t.Errorf("coordinating shard counted %d full-queue rejections, want 1", n)
	}

	f.shards[2].walMu.Unlock()
	locked = false
	for id, r := range collect(t, f.c, 3) {
		if r.status != wire.StatusOK {
			t.Errorf("queued request %d: status %v (%s)", id, r.status, r.value)
		}
	}
	th := f.w.th
	for i, sh := range f.shards {
		if _, found, _ := sh.doGet(context.Background(), th, f.keys[i][3]); found {
			t.Errorf("shard %d holds the BUSY batch's key", i)
		}
		if _, found, _ := sh.doGet(context.Background(), th, f.keys[i][2]); !found {
			t.Errorf("shard %d lost a queued batch's key", i)
		}
	}
}

// TestShutdownAnswersQueuedRounds drains a server whose round queue holds
// work behind a stalled round: Shutdown must wait, every queued task must be
// answered, and the coordinator goroutine must be gone when it returns.
func TestShutdownAnswersQueuedRounds(t *testing.T) {
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}, 4)
	val := []byte("payload")
	f.shards[1].walMu.Lock()
	f.w.run([]task{f.spanning(1, 0, val)})
	f.waitRounds(t, 1)
	f.w.run([]task{f.spanning(2, 1, val), f.spanning(3, 2, val), f.spanning(4, 3, val)})

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- f.s.Shutdown(ctx)
	}()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with four cross-shard ATOMICs unanswered", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.shards[1].walMu.Unlock()
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for id, r := range collect(t, f.c, 4) {
		if r.status != wire.StatusOK {
			t.Errorf("request %d: status %v (%s)", id, r.status, r.value)
		}
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

// counter reads key on shard i as an ADD counter (found = false: no key).
func (f *roundFixture) counter(t *testing.T, i int, key uint64) (uint64, bool) {
	t.Helper()
	val, found, err := f.shards[i].doGet(context.Background(), f.w.th, key)
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
// annotated or answered.
func newHeldRound(t *testing.T, build func(f *roundFixture) []task) *heldRound {
	var armed atomic.Bool
	h := &heldRound{release: make(chan error, 1), done: make(chan struct{})}
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
		h.rc.roundOf(tasks...)
	}()
	<-holding
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
	none := h.bootCopy(t, func(dir string) {
		// Shard 1's log held nothing before the round: cut it all away.
		segs, _ := filepath.Glob(filepath.Join(shardDataDir(dir, 1), "*.seg"))
		if len(segs) != 1 || os.Truncate(segs[0], 0) != nil {
			t.Fatalf("cannot cut shard 1's log: %v", segs)
		}
	})
	for i, key := range []uint64{k0, k1, h.keys[2][0]} {
		if _, found, _ := none.shards[i].doGet(context.Background(), none.w.th, key); found {
			t.Errorf("crash image without shard 1's prepare: key %d survived on shard %d", key, i)
		}
	}

	h.release <- nil
	<-h.done
	if r, l, fl := h.rc.nRounds.Load(), h.rc.nLogged.Load(), h.rc.nFlushes.Load(); r != 1 || l != 1 || fl != 1 {
		t.Fatalf("%d rounds, %d logged, %d flushes; want one of each", r, l, fl)
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

// putBehind runs a one-PUT write group on the un-held participant, on top of
// the round's PUT, and starts its flush: the returned channel closes when
// the group has been answered.
func (h *heldRound) putBehind(t *testing.T) chan struct{} {
	t.Helper()
	sh := h.shards[h.b]
	th := h.s.rt.RegisterThread()
	w := newGroupWorker(h.s, sh, th)
	appends := sh.walAppends.Load()
	ran := make(chan struct{})
	go func() {
		w.run([]task{mkTask(h.s, h.c, wire.OpPut, 2, h.key[h.b], []byte("group"), nil)})
		close(ran)
	}()
	// No walMu is held across the round's flush: the group executes and
	// appends while the flush is still held.
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a participant's group cannot run while the round's flush is outstanding")
	}
	if sh.walAppends.Load() != appends+1 || len(w.pending) != 1 {
		t.Fatalf("the group did not append behind the prepare: %d appends, %d pending", sh.walAppends.Load()-appends, len(w.pending))
	}
	answered := make(chan struct{})
	go func() {
		w.close() // flushes
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
	answered := h.putBehind(t)
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
	if rs := h.s.RoundStats(); rs.GroupWaits != 1 {
		t.Errorf("GroupWaits = %d, want the one gated group", rs.GroupWaits)
	}
	// Replay order = memory order: the group's value wins in a crash image.
	re := h.bootCopy(t, nil)
	if val, _, _ := re.shards[h.b].doGet(context.Background(), re.w.th, h.key[h.b]); string(val) != "group" {
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
		_, err := h.s.snapshotShard(sh, h.w.th)
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
	answered := h.putBehind(t)
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
	if _, _, err := h.s.captureShardState(h.shards[h.b], h.w.th, nil); err == nil {
		t.Error("a shard left in doubt by a failed round was captured")
	}
}

// TestSplitRacingQueuedRound splits a participant between a cross-shard
// batch's hand-off and its round: the plan the worker attached is stale, so
// the round must answer BUSY — BUSY means nothing executed — and free what
// was pre-allocated on the old owner.
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

	// k0 lives on shard 0; k1 on shard 1, among the keys a split moves away.
	var k0, k1 uint64
	for k := uint64(1); k0 == 0 || k1 == 0; k++ {
		switch {
		case s.Shard(k) == 0 && k0 == 0:
			k0 = k
		case s.Shard(k) == 1 && subMix(k)&1 != 0 && k1 == 0:
			k1 = k
		}
	}
	for _, p := range []struct {
		sh  *shard
		key uint64
	}{{sh0, k0}, {root1, k1}} {
		if _, err := p.sh.doPut(ctx, th, p.key, []byte("seed")); err != nil {
			t.Fatalf("seed %d: %v", p.key, err)
		}
	}

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
	w := newGroupWorker(s, sh0, th)
	defer w.close()
	words := sh0.view.AllocatedWords()
	w.run([]task{mkAtomic(s, c, 1,
		wire.Sub{Kind: wire.SubPut, Key: k0, Value: []byte("new")},
		wire.Sub{Kind: wire.SubPut, Key: k1, Value: []byte("new")})})
	for deadline := time.Now().Add(5 * time.Second); len(s.rounds.queue) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never took the queued task")
		}
	}
	if err := s.splitShard(g1, root1); err != nil {
		t.Fatalf("split: %v", err)
	}
	owner := g1.route(k1)
	if owner == root1 {
		t.Fatalf("the split left key %d on its old owner", k1)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("exclusive section: %v", err)
	}

	if r := collect(t, c, 1)[1]; r.status != wire.StatusBusy {
		t.Fatalf("round over a stale plan: status %v (%s), want BUSY", r.status, r.value)
	}
	for _, p := range []struct {
		sh  *shard
		key uint64
	}{{sh0, k0}, {owner, k1}} {
		if val, found, err := p.sh.doGet(ctx, th, p.key); err != nil || !found || string(val) != "seed" {
			t.Errorf("key %d after BUSY: %q found=%v err=%v, want the seed", p.key, val, found, err)
		}
	}
	if n := sh0.view.AllocatedWords(); n != words {
		t.Errorf("shard 0: allocated words %d -> %d: the refused batch's pre-allocations leaked", words, n)
	}
	// The retry plans against the new routing and commits.
	w.run([]task{mkAtomic(s, c, 2,
		wire.Sub{Kind: wire.SubPut, Key: k0, Value: []byte("new")},
		wire.Sub{Kind: wire.SubPut, Key: k1, Value: []byte("new")})})
	if r := collect(t, c, 1)[2]; r.status != wire.StatusOK {
		t.Fatalf("retry after the split: status %v (%s)", r.status, r.value)
	}
	if val, _, _ := owner.doGet(ctx, th, k1); string(val) != "new" {
		t.Errorf("key %d on its new owner = %q, want the retry's value", k1, val)
	}
}
