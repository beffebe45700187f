package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"votm"
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

// TestRoundDefersDependentTask checks the per-task recovery rule: in a
// durable server an ADD on a key an earlier task of the same round writes
// waits for the next round (its post-image would embed that task's effect),
// while blind PUTs on the same key share the round.
func TestRoundDefersDependentTask(t *testing.T) {
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}, 2)
	rc := newTestCoordinator(t, f.s)
	k0, k1 := f.keys[0][0], f.keys[1][0]
	add := func(id uint32, d uint64) task {
		return mkAtomic(f.s, f.c, id,
			wire.Sub{Kind: wire.SubAdd, Key: k0, Delta: d}, wire.Sub{Kind: wire.SubAdd, Key: k1, Delta: d})
	}
	put := func(id uint32, key uint64) task {
		return mkAtomic(f.s, f.c, id,
			wire.Sub{Kind: wire.SubPut, Key: key, Value: []byte("blind")}, wire.Sub{Kind: wire.SubPut, Key: f.keys[2][0], Value: []byte("blind")})
	}
	for _, tk := range []task{add(1, 1), add(2, 10), put(3, f.keys[0][1]), add(4, 100), put(5, f.keys[0][1])} {
		rc.admit(roundTask{t: tk, batch: f.s.acquireBatch(tk.req.Subs)})
	}
	if len(rc.tasks) != 3 || len(rc.carry) != 2 {
		t.Fatalf("first round admits %d and defers %d; want 3 (one ADD, both PUTs) and 2 (the later ADDs)", len(rc.tasks), len(rc.carry))
	}
	rounds := 0
	for len(rc.tasks) > 0 || len(rc.carry) > 0 {
		rc.runRound()
		rounds++
		rc.fill()
	}
	if rounds != 3 {
		t.Errorf("three ADDs on one key took %d rounds, want 3", rounds)
	}
	got := collect(t, f.c, 5)
	for id, want := range map[uint32]uint64{1: 1, 2: 11, 4: 111} {
		if r := got[id]; r.status != wire.StatusOK || len(r.subs) != 2 || r.subs[0].Sum != want || r.subs[1].Sum != want {
			t.Errorf("ADD %d: %+v, want both sums %d (arrival order kept)", id, r, want)
		}
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
