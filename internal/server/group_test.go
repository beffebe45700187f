package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"votm"
	"votm/internal/stm"
	"votm/wire"
)

// newTestConn builds a detached conn whose out channel the test reads
// directly — no socket, no write loop — for driving groupWorker.run with
// hand-built batches. The test's goroutine is its reader: the conn takes the
// server's drain registration as serveConn does, and hangs up once the
// server starts draining.
func newTestConn(s *Server, depth int) *conn {
	c := &conn{srv: s, out: make(chan *wire.Response, depth)}
	if s.beginReq() {
		go func() {
			for !s.draining.Load() {
				time.Sleep(time.Millisecond)
			}
			c.hangUp()
		}()
	}
	return c
}

// testClose retires an executor state a test drove by hand: it waits until
// every group it listed is answered, then drops its request context.
func (w *groupWorker) testClose() {
	w.sh.ack.drain()
	w.reqContext.close()
}

// testReq takes a request from c's stock as the reader does before a decode,
// and clears it as the decode would.
func (c *conn) testReq(op wire.Op, id uint32) *wire.Request {
	req := c.reqs.take()
	*req = wire.Request{Op: op, ID: id, Subs: req.Subs[:0]}
	return req
}

// recycle gives a received chain back to c the way the write loop does.
func (c *conn) recycle(r *wire.Response) {
	var buf [4]*wire.Response
	chain := buf[:0]
	for ; r != nil; r = r.Next {
		chain = append(chain, r)
	}
	c.giveResps(chain)
}

// mkTask builds one dispatched task the way the connection reader would: a
// request and a response from the connection's stock, charged to its pending
// count.
func mkTask(s *Server, c *conn, op wire.Op, id uint32, key uint64, val, old []byte) task {
	req := c.testReq(op, id)
	req.Key, req.Value, req.OldValue = key, val, old
	return queued(s, c, req)
}

// atomicReq builds an ATOMIC request from c's stock, as the frame decoder
// would; hand it to c.dispatch to go through the reader's real plan-and-queue
// path.
func (c *conn) atomicReq(id uint32, subs ...wire.Sub) *wire.Request {
	req := c.testReq(wire.OpAtomic, id)
	req.Subs = append(req.Subs, subs...)
	return req
}

// scanReq builds a SCAN page request for [lo, end) the same way.
func (c *conn) scanReq(id uint32, lo, end uint64, limit uint32) *wire.Request {
	req := c.testReq(wire.OpScan, id)
	req.Key, req.End, req.Limit = lo, end, limit
	return req
}

// queued wraps a request as a dispatched task, planned now — the routing
// plan a reader attaches to an ATOMIC reflects the routing table as of this
// call — for tests that hand-pick what shares a group or a round.
func queued(s *Server, c *conn, req *wire.Request) task {
	c.charge()
	t := task{req: req, resp: c.resps.take(), c: c}
	t.resp.Op, t.resp.ID = req.Op, req.ID
	if req.Op == wire.OpAtomic {
		t.batch = s.acquireBatch(req.Subs)
	}
	return t
}

// mkAtomic builds one dispatched ATOMIC batch with its plan attached.
func mkAtomic(s *Server, c *conn, id uint32, subs ...wire.Sub) task {
	return queued(s, c, c.atomicReq(id, subs...))
}

// mkSubGet builds a one-key read-only ATOMIC: the read that still rides a
// group (a point GET is answered by the connection reader).
func mkSubGet(s *Server, c *conn, id uint32, key uint64) task {
	return mkAtomic(s, c, id, wire.Sub{Kind: wire.SubGet, Key: key})
}

// newTestCoordinator builds a round coordinator the test drives on its own
// goroutine — admit and runRound called directly, nothing queued — so a test
// decides exactly which tasks share a round. The server's own coordinator
// stays parked on its empty queue.
func newTestCoordinator(t testing.TB, s *Server) *roundCoordinator {
	rc := newRoundCoordinator(s)
	t.Cleanup(func() {
		rc.reqContext.close()
		rc.th.Release()
	})
	return rc
}

// roundOf runs the tasks — planned spanning ATOMICs — as the coordinator
// runs a queue's worth: as one round. It returns once everything is answered.
func (rc *roundCoordinator) roundOf(tasks ...task) {
	rc.startRound(tasks...)
	rc.idle()
}

// startRound admits the tasks as roundOf does and returns as the coordinator
// would: a logging round is appended, its shares listed, nothing answered.
func (rc *roundCoordinator) startRound(tasks ...task) {
	for _, t := range tasks {
		rc.admit(t)
	}
	rc.runRound()
}

// idle returns once no round is in flight: a flight leaves the queue after its
// last answer.
func (rc *roundCoordinator) idle() {
	for {
		rc.fmu.Lock()
		n := len(rc.inflight)
		rc.fmu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// collect drains n responses from the test conn, keyed by request ID. The
// responses are copied out (status, value, created, sub-results) before they
// go back to the conn for reuse.
type gotResp struct {
	status  wire.Status
	value   []byte
	created bool
	subs    []wire.SubResult
	entries []wire.ScanEntry
}

func collect(t *testing.T, c *conn, n int) map[uint32]gotResp {
	t.Helper()
	out := make(map[uint32]gotResp, n)
	for len(out) < n {
		select {
		case r := <-c.out:
			// A group's responses for one conn arrive as a single chain.
			for r := r; r != nil; r = r.Next {
				out[r.ID] = gotResp{status: r.Status, value: append([]byte(nil), r.Value...), created: r.Created,
					subs: append([]wire.SubResult(nil), r.Subs...), entries: append([]wire.ScanEntry(nil), r.Entries...)}
			}
			c.recycle(r)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d responses arrived", len(out), n)
		}
	}
	return out
}

// TestGroupedExecutionOracle runs one mixed batch through groupWorker.run
// and checks every per-request outcome against the protocol's per-request
// semantics, written out as literals: statuses stay per-request,
// intra-group ops observe each other (one transaction), and the committed
// state matches a sequential oracle.
func TestGroupedExecutionOracle(t *testing.T) {
	s, err := New(Config{Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ctx := context.Background()
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := s.shards[0]

	// Seed with one kernel verb per transaction (store_test.go), outside any
	// group.
	if created, err := sh.testPut(ctx, th, 1, []byte("alpha")); err != nil || !created {
		t.Fatalf("seed put: created=%v err=%v", created, err)
	}
	if _, err := sh.testPut(ctx, th, 3, []byte("gamma")); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	if _, err := sh.testPut(ctx, th, 4, []byte("delta")); err != nil {
		t.Fatalf("seed put: %v", err)
	}

	c := newTestConn(s, 16)
	w := newGroupWorker(s, sh, th)
	defer w.testClose()
	batch := []task{
		mkSubGet(s, c, 1, 1), // "alpha"
		mkTask(s, c, wire.OpPut, 2, 5, []byte("new"), nil),                     // created
		mkTask(s, c, wire.OpPut, 3, 5, []byte("newer"), nil),                   // overwrites within the group
		mkTask(s, c, wire.OpCAS, 4, 3, []byte("gamma2"), []byte("gamma")),      // matches
		mkTask(s, c, wire.OpCAS, 5, 4, []byte("nope"), []byte("wrong-expect")), // mismatch, current in Value
		mkTask(s, c, wire.OpDelete, 6, 1, nil, nil),                            // deletes the key read 1 read
		mkSubGet(s, c, 7, 1),                         // sees the group's own delete
		mkTask(s, c, wire.OpDelete, 8, 99, nil, nil), // absent
		mkSubGet(s, c, 9, 5),                         // sees "newer"
	}
	w.run(batch)
	got := collect(t, c, len(batch))

	// A one-key read's outcome is its sub-result's, as check reads it.
	for id, r := range got {
		if len(r.subs) == 1 {
			if r.status != wire.StatusOK {
				t.Fatalf("read %d: ATOMIC status %v", id, r.status)
			}
			r.status, r.value = r.subs[0].Status, r.subs[0].Value
			got[id] = r
		}
	}
	check := func(id uint32, status wire.Status, value string) {
		t.Helper()
		r, ok := got[id]
		if !ok {
			t.Fatalf("request %d unanswered", id)
		}
		if r.status != status {
			t.Errorf("request %d: status %v, want %v", id, r.status, status)
		}
		if value != "" && string(r.value) != value {
			t.Errorf("request %d: value %q, want %q", id, r.value, value)
		}
	}
	check(1, wire.StatusOK, "alpha")
	check(2, wire.StatusOK, "")
	check(3, wire.StatusOK, "")
	check(4, wire.StatusOK, "")
	check(5, wire.StatusCASMismatch, "delta")
	check(6, wire.StatusOK, "")
	check(7, wire.StatusNotFound, "")
	check(8, wire.StatusNotFound, "")
	check(9, wire.StatusOK, "newer")
	if !got[2].created || got[3].created {
		t.Errorf("created flags: put#2=%v put#3=%v, want true/false", got[2].created, got[3].created)
	}

	// Committed state, read back one key per transaction.
	for _, tc := range []struct {
		key   uint64
		want  string
		found bool
	}{
		{1, "", false}, {3, "gamma2", true}, {4, "delta", true}, {5, "newer", true},
	} {
		val, found, err := sh.testGet(ctx, th, tc.key)
		if err != nil {
			t.Fatalf("oracle get %d: %v", tc.key, err)
		}
		if found != tc.found || (found && !bytes.Equal(val, []byte(tc.want))) {
			t.Errorf("key %d: %q found=%v, want %q found=%v", tc.key, val, found, tc.want, tc.found)
		}
	}
	// And a CAS on its own sees the value the group's CAS left.
	if outcome, _, err := sh.testCAS(ctx, th, 3, []byte("gamma2"), []byte("gamma3")); err != nil || outcome != wire.StatusOK {
		t.Fatalf("CAS after group: outcome=%v err=%v", outcome, err)
	}
	if found, err := sh.testDelete(ctx, th, 5); err != nil || !found {
		t.Fatalf("DELETE after group: found=%v err=%v", found, err)
	}

	// Group accounting: one grouped transaction of 9 ops (the helper calls
	// above are not grouped).
	groups, groupOps := sh.groups.Load(), sh.groupOps.Load()
	if groups != 1 || groupOps != 9 {
		t.Errorf("groups=%d groupOps=%d, want 1 and 9", groups, groupOps)
	}
	if groups != 0 && groupOps/groups != 9 {
		t.Errorf("groupOps/groups = %d, want 9", groupOps/groups)
	}

	// The key counter survived the churn: keys 3 and 4 remain.
	if n := sh.keys.Load(); n != 2 {
		t.Errorf("key counter = %d, want 2", n)
	}
}

// TestGroupPanicAnswersEveryRequest injects a panic into the middle of a
// grouped transaction and asserts the containment contract: the whole group
// fails with StatusTxFault, every member is answered, nothing committed,
// and the worker survives to execute the next group.
func TestGroupPanicAnswersEveryRequest(t *testing.T) {
	var arm atomic.Bool
	hook := func(op votm.FaultOp, thread int, addr stm.Addr) {
		if op == votm.FaultStore && arm.CompareAndSwap(true, false) {
			panic(votm.InjectedPanic{Seq: 1})
		}
	}
	s, err := New(Config{Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 2, FaultHook: hook})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ctx := context.Background()
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := s.shards[0]
	if _, err := sh.testPut(ctx, th, 1, []byte("before")); err != nil {
		t.Fatal(err)
	}

	c := newTestConn(s, 8)
	w := newGroupWorker(s, sh, th)
	defer w.testClose()
	batch := []task{
		mkTask(s, c, wire.OpPut, 1, 1, []byte("after"), nil),
		mkTask(s, c, wire.OpPut, 2, 2, []byte("fresh"), nil),
		mkSubGet(s, c, 3, 1),
	}
	arm.Store(true)
	w.run(batch)
	got := collect(t, c, len(batch))
	for id := uint32(1); id <= 3; id++ {
		if got[id].status != wire.StatusTxFault {
			t.Errorf("request %d: status %v, want TxFault for the whole group", id, got[id].status)
		}
	}
	// Nothing committed: the runtime rolled the instrumented transaction
	// back before the panic reached the group runner.
	val, found, err := sh.testGet(ctx, th, 1)
	if err != nil || !found || string(val) != "before" {
		t.Fatalf("key 1 after contained panic: %q found=%v err=%v", val, found, err)
	}
	if _, found, _ := sh.testGet(ctx, th, 2); found {
		t.Fatal("key 2 exists; the faulted group partially committed")
	}

	// The worker state is clean: the next group executes normally.
	batch2 := []task{mkTask(s, c, wire.OpPut, 4, 2, []byte("recovered"), nil)}
	w.run(batch2)
	if r := collect(t, c, 1)[4]; r.status != wire.StatusOK || !r.created {
		t.Fatalf("post-panic group: %+v", r)
	}
	if totals := sh.view.Snapshot().Totals; totals.Panics == 0 {
		t.Errorf("panic not accounted in Totals: %+v", totals)
	}
}

// TestSteadyStateGetAllocs is the serving-path allocation guard: once pools
// and buffers are warm, a GET answered on the connection reader — pooled
// request, plan, validated read, the chain's
// publication, pooled response — allocates nothing, and neither does a GET
// that falls back to an admitted read-only transaction. This is what keeps
// PR 2's alloc-free STM work intact behind the network layer.
func TestSteadyStateGetAllocs(t *testing.T) {
	steadyGetAllocs(t, Config{})
}

// TestSteadyStateGetAllocsDurable re-runs the serving-path allocation guard
// with the per-shard WAL on: reads never touch walMu or the log, so turning
// durability on must not cost the read path a single allocation.
func TestSteadyStateGetAllocsDurable(t *testing.T) {
	steadyGetAllocs(t, Config{Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour})
}

func steadyGetAllocs(t *testing.T, cfg Config) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	cfg.Shards, cfg.ShardWords, cfg.WorkersPerShard = 1, 1<<12, 2
	cfg.RequestTimeout = time.Hour // keep the amortized context from renewing mid-measurement
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := s.shards[0]
	if (sh.log != nil) != (cfg.Durability == DurabilityGroup) {
		t.Fatalf("shard WAL %v under %v", sh.log != nil, cfg.Durability)
	}
	if _, err := sh.testPut(context.Background(), th, 7, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}

	c := newTestConn(s, 4)
	getReq := func() *wire.Request {
		req := c.testReq(wire.OpGet, 1)
		req.Key = 7
		return req
	}
	for _, tc := range []struct {
		name  string
		serve func()
	}{
		{"validated read", func() { c.dispatch(getReq()) }},
		{"fallback", func() { c.serveGet(queued(s, c, getReq()), 0); c.publish() }},
	} {
		run := func() {
			tc.serve()
			r := <-c.out
			if r.Status != wire.StatusOK || len(r.Value) != 64 || r.Next != nil {
				t.Fatalf("%s: get: %+v", tc.name, r)
			}
			c.recycle(r)
		}
		for i := 0; i < 32; i++ {
			run() // warm the pools, the tx descriptor and the response Value
		}
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Errorf("%s: steady-state GET allocates %.1f/op, want 0", tc.name, n)
		}
	}
	if rs := s.RoundStats(); rs.Gets != 2*233 || rs.GetTries != 233 || rs.GetFallbacks != 233 {
		t.Errorf("GET meters %d served, %d tries, %d fallbacks; want 466, 233, 233", rs.Gets, rs.GetTries, rs.GetFallbacks)
	}
	if g := sh.groups.Load(); g != 0 {
		t.Errorf("%d groups ran: a GET entered the ring", g)
	}
}

// shutdownServer drains s at test end.
func shutdownServer(t *testing.T, s *Server) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
}

// copyTree copies src into dst, simulating the on-disk state a SIGKILL at
// this instant would leave behind (acknowledged groups are fsynced, so they
// are all present in the copy).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

// CopyTree exports copyTree to the external test package.
var CopyTree = copyTree

// TestGroupMergedDrain drains point ops and same-shard ATOMIC batches in one
// wakeup and checks they ran as ONE grouped transaction with ONE WAL append:
// the ATOMIC members see their group-mates' writes, a batch refused by its
// validation pass answers BAD_REQUEST having written nothing while its
// drain-mates commit, and a crash-restart replays the group to the same
// state.
func TestGroupMergedDrain(t *testing.T) {
	cfg := Config{
		Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 2,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := s.shards[0]
	c := newTestConn(s, 16)
	w := newGroupWorker(s, sh, th)
	defer w.testClose()

	// Seed through the worker so the seeds are in the log too: key 10 holds
	// a 3-byte value (the bad ADD's target), key 3 the CAS's expectation.
	w.run([]task{
		mkTask(s, c, wire.OpPut, 1, 10, []byte("abc"), nil),
		mkTask(s, c, wire.OpPut, 2, 3, []byte("gamma"), nil),
	})
	collect(t, c, 2)
	groups, groupOps := sh.groups.Load(), sh.groupOps.Load()
	appends := sh.walAppends.Load()

	w.run([]task{
		mkTask(s, c, wire.OpPut, 11, 1, []byte("one"), nil),
		mkSubGet(s, c, 12, 3),
		mkAtomic(s, c, 13,
			wire.Sub{Kind: wire.SubPut, Key: 20, Value: []byte("x")},
			wire.Sub{Kind: wire.SubAdd, Key: 21, Delta: 5},
			wire.Sub{Kind: wire.SubGet, Key: 1}), // sees PUT#11: same transaction
		mkAtomic(s, c, 14,
			wire.Sub{Kind: wire.SubPut, Key: 30, Value: []byte("never")},
			wire.Sub{Kind: wire.SubAdd, Key: 10, Delta: 1}), // 3-byte value: refused
		mkTask(s, c, wire.OpCAS, 15, 3, []byte("gamma2"), []byte("gamma")),
	})
	got := collect(t, c, 5)

	for id, want := range map[uint32]wire.Status{
		11: wire.StatusOK, 12: wire.StatusOK, 13: wire.StatusOK,
		14: wire.StatusBadRequest, 15: wire.StatusOK,
	} {
		if got[id].status != want {
			t.Errorf("request %d: status %v, want %v (%s)", id, got[id].status, want, got[id].value)
		}
	}
	if subs := got[12].subs; len(subs) != 1 || string(subs[0].Value) != "gamma" {
		t.Errorf("read #12 = %+v, want gamma", subs)
	}
	if subs := got[13].subs; len(subs) != 3 || subs[1].Sum != 5 || string(subs[2].Value) != "one" {
		t.Errorf("ATOMIC#13 results = %+v, want sum 5 and its group-mate's value", subs)
	}
	if g, ops := sh.groups.Load(), sh.groupOps.Load(); g != groups+1 || ops != groupOps+5 {
		t.Errorf("groups %d -> %d, groupOps %d -> %d; want one group of 5", groups, g, groupOps, ops)
	}
	if n := sh.walAppends.Load(); n != appends+1 {
		t.Errorf("walAppends grew by %d, want 1 (one redo batch per group)", n-appends)
	}

	sum5 := binary.LittleEndian.AppendUint64(nil, 5)
	verify := func(name string, s *Server) {
		t.Helper()
		th := s.rt.RegisterThread()
		defer th.Release()
		sh := s.shards[0]
		for _, tc := range []struct {
			key  uint64
			want []byte // nil = absent
		}{
			{1, []byte("one")}, {3, []byte("gamma2")}, {10, []byte("abc")},
			{20, []byte("x")}, {21, sum5}, {30, nil},
		} {
			val, found, err := sh.testGet(context.Background(), th, tc.key)
			if err != nil || found != (tc.want != nil) || !bytes.Equal(val, tc.want) {
				t.Errorf("%s: key %d = %q found=%v err=%v, want %q", name, tc.key, val, found, err, tc.want)
			}
		}
		if n := sh.keys.Load(); n != 5 {
			t.Errorf("%s: key counter = %d, want 5", name, n)
		}
	}
	verify("live", s)

	crashed := t.TempDir()
	copyTree(t, cfg.DataDir, crashed)
	cfg.DataDir = crashed
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	shutdownServer(t, s2)
	if r := s2.Recovery()[0]; r.CleanStart || r.Replayed == 0 {
		t.Fatalf("restart did not replay the log: %+v", r)
	}
	verify("replayed", s2)
}

// TestAtomicPanicFreesPreallocations injects a panic into a same-shard
// ATOMIC (a group member) and into three-shard ATOMICs (a round): every task
// answers TxFault, nothing commits, and every participant's allocator is
// back at its pre-batch figure — the blocks and index nodes pre-allocated
// for the batches were released on the panic path.
func TestAtomicPanicFreesPreallocations(t *testing.T) {
	var armed atomic.Int32 // the FaultOp to panic at, +1; 0 = disarmed
	hook := func(op votm.FaultOp, thread int, addr stm.Addr) {
		if armed.CompareAndSwap(int32(op)+1, 0) {
			panic(votm.InjectedPanic{Seq: 1})
		}
	}
	s, err := New(Config{Shards: 3, ShardWords: 1 << 12, WorkersPerShard: 2, FaultHook: hook})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	var shards [3]*shard
	var keys [3][]uint64 // four keys per shard
	for k := uint64(1); len(keys[0]) < 4 || len(keys[1]) < 4 || len(keys[2]) < 4; k++ {
		if i := s.Shard(k); len(keys[i]) < 4 {
			keys[i] = append(keys[i], k)
		}
	}
	for i := range shards {
		shards[i] = s.shards[i]
	}
	c := newTestConn(s, 16)
	w := newGroupWorker(s, shards[0], th)
	defer w.testClose()

	inUse := func() (n [3]int) {
		for i, sh := range shards {
			n[i] = sh.view.AllocatedWords()
		}
		return n
	}
	put := func(key uint64) wire.Sub { return wire.Sub{Kind: wire.SubPut, Key: key, Value: []byte("payload")} }
	add := func(key uint64) wire.Sub { return wire.Sub{Kind: wire.SubAdd, Key: key, Delta: 1} }
	spanningReq := func(id uint32, j int) *wire.Request {
		return c.atomicReq(id, put(keys[0][j]), add(keys[1][j]), put(keys[2][j]))
	}
	spanning := func(id uint32, j int) task { return queued(s, c, spanningReq(id, j)) }

	// The group cases go through the worker; the round cases are built as ONE
	// round on a coordinator the test drives itself (the server's coordinator
	// could split them into two, and only the first would meet the one-shot
	// fault).
	rc := newTestCoordinator(t, s)
	for _, tc := range []struct {
		name  string
		at    votm.FaultOp
		round bool
		batch []task
	}{
		{"same-shard member of a group", votm.FaultStore, false, []task{
			mkTask(s, c, wire.OpPut, 1, keys[0][3], []byte("mate"), nil),
			mkAtomic(s, c, 2, put(keys[0][0]), add(keys[0][1]), put(keys[0][2])),
		}},
		{"one-task round", votm.FaultAdmit, true, []task{spanning(1, 0)}},
		{"two-task round", votm.FaultAdmit, true, []task{spanning(1, 0), spanning(2, 1)}},
	} {
		before := inUse()
		armed.Store(int32(tc.at) + 1)
		if tc.round {
			rc.roundOf(tc.batch...)
		} else {
			w.run(tc.batch)
		}
		if armed.Load() != 0 {
			t.Fatalf("%s: the fault never fired", tc.name)
		}
		for id, r := range collect(t, c, len(tc.batch)) {
			if r.status != wire.StatusTxFault {
				t.Errorf("%s: request %d: status %v, want TxFault", tc.name, id, r.status)
			}
		}
		if after := inUse(); after != before {
			t.Errorf("%s: allocated words %v -> %v: pre-allocations leaked", tc.name, before, after)
		}
		for i, sh := range shards {
			if n := sh.keys.Load(); n != 0 {
				t.Errorf("%s: shard %d holds %d keys after a faulted batch", tc.name, i, n)
			}
		}
	}

	// Worker and coordinator survive: the same batches commit once the hook
	// is quiet — the spanning one through the reader and the server's own
	// coordinator this time.
	c.dispatch(spanningReq(1, 0))
	w.run([]task{mkAtomic(s, c, 2, put(keys[0][2]), add(keys[0][3]))})
	for id, r := range collect(t, c, 2) {
		if r.status != wire.StatusOK {
			t.Errorf("post-fault request %d: status %v (%s)", id, r.status, r.value)
		}
	}
	if a, b, c := shards[0].keys.Load(), shards[1].keys.Load(), shards[2].keys.Load(); a != 3 || b != 1 || c != 1 {
		t.Errorf("post-fault key counters = %d/%d/%d, want 3/1/1", a, b, c)
	}
}

// TestSteadyStateAtomicAllocs pins the allocation cost of a 3-PUT same-shard
// ATOMIC riding the group: the interpreter state, routing plan, effect lists
// and response slots are all recycled, so it allocates nothing.
func TestSteadyStateAtomicAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation allocates on this path")
	}
	s, err := New(Config{Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 2, RequestTimeout: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := s.shards[0]
	c := newTestConn(s, 4)
	w := newGroupWorker(s, sh, th)
	defer w.testClose()
	val := bytes.Repeat([]byte{0xCD}, 64)
	batch := make([]task, 1)
	run := func() {
		batch[0] = mkAtomic(s, c, 1,
			wire.Sub{Kind: wire.SubPut, Key: 1, Value: val},
			wire.Sub{Kind: wire.SubPut, Key: 2, Value: val},
			wire.Sub{Kind: wire.SubPut, Key: 3, Value: val})
		w.run(batch)
		r := <-c.out
		if r.Status != wire.StatusOK || len(r.Subs) != 3 {
			t.Fatalf("atomic: %+v", r)
		}
		c.recycle(r)
	}
	for i := 0; i < 32; i++ {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("steady-state 3-PUT ATOMIC allocates %.1f/op, want 0", n)
	}
}
