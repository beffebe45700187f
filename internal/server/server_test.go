package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"votm"
	"votm/client"
	"votm/internal/server"
	"votm/wire"
)

// startServer boots a server on a loopback listener and returns it with its
// dial address. Cleanup drains it (Shutdown is idempotent, so tests that
// drain explicitly still compose).
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialClient(t testing.TB, addr string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// keysOnShard returns n distinct keys that all hash to the given shard.
func keysOnShard(srv *server.Server, shard, n int, start uint64) []uint64 {
	keys := make([]uint64, 0, n)
	for k := start; len(keys) < n; k++ {
		if srv.Shard(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestServerBasicOps walks the full request surface over a real TCP
// connection: every opcode, every user-facing status, and value-codec round
// trips at the word boundaries the enc packing must get right.
func TestServerBasicOps(t *testing.T) {
	srv, addr := startServer(t, server.Config{Shards: 4})
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// GET of a missing key.
	if _, err := c.Get(ctx, 404); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("get missing: %v, want ErrNotFound", err)
	}

	// PUT create / overwrite / GET, across the length boundaries where the
	// server's value codec switches word counts (7/8/9 around one word,
	// 15/16/17 around two) plus empty and multi-word payloads.
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000}
	for i, n := range lengths {
		key := uint64(1000 + i)
		val := make([]byte, n)
		for j := range val {
			val[j] = byte(j*131 + n)
		}
		created, err := c.Put(ctx, key, val)
		if err != nil || !created {
			t.Fatalf("put len %d: created=%v err=%v", n, created, err)
		}
		got, err := c.Get(ctx, key)
		if err != nil {
			t.Fatalf("get len %d: %v", n, err)
		}
		if string(got) != string(val) {
			t.Fatalf("len %d round trip: got %d bytes %x", n, len(got), got)
		}
		// Overwrite with a value one byte longer (crosses the boundary).
		created, err = c.Put(ctx, key, append(val, 0xAB))
		if err != nil || created {
			t.Fatalf("overwrite len %d: created=%v err=%v", n, created, err)
		}
		if got, _ = c.Get(ctx, key); len(got) != n+1 {
			t.Fatalf("overwrite len %d: read %d bytes back", n, len(got))
		}
	}

	// DELETE present and absent.
	if err := c.Delete(ctx, 1000); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := c.Delete(ctx, 1000); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("re-delete: %v, want ErrNotFound", err)
	}
	if _, err := c.Get(ctx, 1000); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}

	// CAS: missing key, mismatch (with current-value detail), then success.
	if err := c.CAS(ctx, 2000, nil, []byte("x")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("cas missing: %v, want ErrNotFound", err)
	}
	if _, err := c.Put(ctx, 2000, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	err := c.CAS(ctx, 2000, []byte("wrong"), []byte("beta"))
	if !errors.Is(err, client.ErrCASMismatch) {
		t.Fatalf("cas mismatch: %v, want ErrCASMismatch", err)
	}
	var werr *wire.Error
	if !errors.As(err, &werr) || string(werr.Detail) != "alpha" {
		t.Fatalf("cas mismatch detail: %v", err)
	}
	if err := c.CAS(ctx, 2000, []byte("alpha"), []byte("beta")); err != nil {
		t.Fatalf("cas: %v", err)
	}
	if got, _ := c.Get(ctx, 2000); string(got) != "beta" {
		t.Fatalf("cas result: %q", got)
	}

	// ATOMIC: a same-shard batch mixing all four sub-ops.
	keys := keysOnShard(srv, 0, 3, 5000)
	if _, err := c.Put(ctx, keys[2], []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	subs, err := c.Atomic(ctx, []wire.Sub{
		{Kind: wire.SubPut, Key: keys[0], Value: []byte("batched")},
		{Kind: wire.SubGet, Key: keys[0]},
		{Kind: wire.SubAdd, Key: keys[1], Delta: 7},
		{Kind: wire.SubDelete, Key: keys[2]},
		{Kind: wire.SubGet, Key: keys[2]},
	})
	if err != nil {
		t.Fatalf("atomic: %v", err)
	}
	if string(subs[1].Value) != "batched" {
		t.Errorf("batch get saw %q, want the batch's own put", subs[1].Value)
	}
	if subs[2].Sum != 7 {
		t.Errorf("batch add sum = %d", subs[2].Sum)
	}
	if subs[4].Status != wire.StatusNotFound {
		t.Errorf("batch get-after-delete = %v, want NotFound", subs[4].Status)
	}

	// ATOMIC across shards: since protocol v3 a batch whose keys hash to
	// different shards executes as one multi-view transaction rather than
	// being rejected CROSS_SHARD.
	other := keysOnShard(srv, 1, 1, 6000)[0]
	subs, err = c.Atomic(ctx, []wire.Sub{
		{Kind: wire.SubPut, Key: keys[0], Value: []byte("span-a")},
		{Kind: wire.SubAdd, Key: other, Delta: 41},
		{Kind: wire.SubGet, Key: keys[0]},
	})
	if err != nil {
		t.Fatalf("cross-shard batch: %v", err)
	}
	if string(subs[2].Value) != "span-a" || subs[1].Sum != 41 {
		t.Fatalf("cross-shard batch results: %+v", subs)
	}
	var xsGroups uint64
	for _, st := range srv.StatsAll() {
		xsGroups += st.CrossShardGroups
	}
	if xsGroups == 0 {
		t.Error("committed cross-shard batch not counted in CrossShardGroups")
	}

	// ATOMIC rejections: empty batch, ADD on a value that is not an 8-byte
	// counter.
	// An empty batch never even leaves the client: the codec refuses it.
	if _, err = c.Atomic(ctx, nil); !errors.Is(err, wire.ErrProtocol) {
		t.Fatalf("empty batch: %v, want ErrProtocol", err)
	}
	if _, err := c.Put(ctx, keys[0], []byte("not8bytes!")); err != nil {
		t.Fatal(err)
	}
	if _, err = c.Add(ctx, keys[0], 1); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("add on non-counter: %v, want ErrBadRequest", err)
	}
	// The rejected batch must not have committed anything.
	if got, _ := c.Get(ctx, keys[0]); string(got) != "not8bytes!" {
		t.Fatalf("rejected batch mutated state: %q", got)
	}

	// ADD counters accumulate and read back as 8-byte LE.
	if _, err := c.Add(ctx, 7000, 40); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Add(ctx, 7000, 2)
	if err != nil || sum != 42 {
		t.Fatalf("add: sum=%d err=%v", sum, err)
	}
	raw, err := c.Get(ctx, 7000)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := client.Counter(raw); err != nil || n != 42 {
		t.Fatalf("counter decode: %d, %v", n, err)
	}

	// Size limit.
	if _, err := c.Put(ctx, 1, make([]byte, 64<<10+1)); !errors.Is(err, client.ErrTooLarge) {
		t.Fatalf("oversized put: %v, want ErrTooLarge", err)
	}

	// STATS: all shards, one shard, out of range.
	stats, err := c.Stats(ctx, wire.AllShards)
	if err != nil || len(stats) != 4 {
		t.Fatalf("stats all: %d shards, %v", len(stats), err)
	}
	for _, st := range stats {
		if st.Engine == "" || st.Quota == 0 {
			t.Errorf("shard %d stats incomplete: %+v", st.Shard, st)
		}
	}
	one, err := c.Stats(ctx, 2)
	if err != nil || len(one) != 1 || one[0].Shard != 2 {
		t.Fatalf("stats one: %+v, %v", one, err)
	}
	if _, err := c.Stats(ctx, 99); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("stats out of range: %v, want ErrBadRequest", err)
	}
}

// TestLoopbackSoak is the acceptance test: many concurrent clients over real
// TCP, a hot-key distribution concentrated on one shard plus cold traffic on
// the rest, deterministic conflict/latency injection to drive the hot view's
// RAC feedback loop, and a per-key sequential oracle over the committed ADDs.
//
// Asserted:
//   - every request succeeds (conflicts are retried or escalated, never
//     surfaced),
//   - each counter's final value equals the uint64 sum of the committed
//     deltas (linearizable per key),
//   - the hot shard saw real contention (aborts > 0),
//   - its admission quota adapted, observed through the wire STATS, whose
//     QuotaEvents is the view's QuotaMoves.
func TestLoopbackSoak(t *testing.T) {
	const (
		nClients = 10
		hotShard = 0
		nHot     = 4
		nCold    = 16
		workers  = 4
	)
	rounds := 150
	if testing.Short() {
		rounds = 40
	}

	// An ADD of an existing key makes 15 hook calls: 12 loads (its length
	// check and the add each read the key's bucket chain, then the counter),
	// one store, the commit, and the admission, which never conflicts. A
	// conflict every 37th call thus aborts about two single-ADD attempts in
	// five (a write group of several ADDs more) — enough pressure to drive
	// delta(Q) and move the quota, low enough that transactions retry and
	// commit instead of all burning straight through the retry budget into
	// escalation (which starves the controller of commit signal). Twenty
	// runs saw 102–544 hot-shard aborts (41–228 under -short).
	inj := votm.NewFaultInjector(votm.FaultConfig{
		ConflictEvery: 37,
		LatencyEvery:  151,
		Latency:       20 * time.Microsecond,
	})
	srv, addr := startServer(t, server.Config{
		Shards:             4,
		WorkersPerShard:    workers,
		QueueDepth:         256,
		AdjustEvery:        32,
		MaxConflictRetries: 8,
		RequestTimeout:     30 * time.Second,
		FaultHook:          inj.Hook(),
	})

	hotKeys := keysOnShard(srv, hotShard, nHot, 1)
	coldKeys := make([]uint64, nCold)
	for i := range coldKeys {
		coldKeys[i] = uint64(100_000 + i*37)
	}

	type tally map[uint64]uint64
	tallies := make([]tally, nClients)
	errCh := make(chan error, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		tallies[ci] = make(tally)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 30 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci) * 7919))
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				var key uint64
				if rng.Intn(4) != 0 { // 75% of traffic hits the hot shard
					key = hotKeys[rng.Intn(nHot)]
				} else {
					key = coldKeys[rng.Intn(nCold)]
				}
				switch rng.Intn(8) {
				case 0: // occasional read mixed in
					if _, err := c.Get(ctx, key); err != nil && !errors.Is(err, client.ErrNotFound) {
						errCh <- fmt.Errorf("client %d get key %d: %w", ci, key, err)
						return
					}
				default:
					delta := uint64(rng.Intn(1000) + 1)
					if _, err := c.Add(ctx, key, delta); err != nil {
						errCh <- fmt.Errorf("client %d add key %d: %w", ci, key, err)
						return
					}
					tallies[ci][key] += delta
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Per-key oracle: the server's counter equals the sum of every committed
	// delta, uint64-exact.
	want := make(tally)
	for _, tl := range tallies {
		for k, v := range tl {
			want[k] += v
		}
	}
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()
	for k, sum := range want {
		raw, err := c.Get(ctx, k)
		if err != nil {
			t.Fatalf("oracle get %d: %v", k, err)
		}
		got, err := client.Counter(raw)
		if err != nil {
			t.Fatalf("oracle decode %d: %v", k, err)
		}
		if got != sum {
			t.Errorf("key %d: server holds %d, oracle says %d", k, got, sum)
		}
	}

	// Hot-shard adaptation, observed over the wire.
	stats, err := c.Stats(ctx, wire.AllShards)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	hot := stats[hotShard]
	if hot.Aborts == 0 {
		t.Errorf("hot shard saw no aborts; contention drive did not bite")
	}
	if hot.QuotaEvents == 0 && hot.QuotaMoves == 0 {
		t.Errorf("hot shard quota never adapted: %+v", hot)
	}
	// quotaEvents is the view's own quota-move counter, served twice.
	if hot.QuotaEvents != hot.QuotaMoves {
		t.Errorf("STATS reports %d quota events but %d quota moves", hot.QuotaEvents, hot.QuotaMoves)
	}
	t.Logf("hot shard: commits=%d aborts=%d escalations=%d settledQ=%d quotaEvents=%d",
		hot.Commits, hot.Aborts, hot.Escalations, hot.SettledQuota, hot.QuotaEvents)
}

// TestServerBusy overwhelms a deliberately tiny server — one shard, one
// worker, queue depth one, with injected per-operation latency — and asserts
// the bounded in-flight queue rejects overload with a typed BUSY instead of
// queueing unboundedly, while the requests that were admitted all commit
// (the counter oracle still holds under backpressure).
func TestServerBusy(t *testing.T) {
	inj := votm.NewFaultInjector(votm.FaultConfig{
		LatencyEvery: 1,
		Latency:      2 * time.Millisecond,
	})
	_, addr := startServer(t, server.Config{
		Shards:          1,
		WorkersPerShard: 1,
		QueueDepth:      1,
		RequestTimeout:  30 * time.Second,
		FaultHook:       inj.Hook(),
	})
	c := dialClient(t, addr, client.Options{PoolSize: 1, RequestTimeout: 30 * time.Second})

	const burst = 64
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		nOK, nBusy int
		others     []error
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Add(context.Background(), 42, 1)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				nOK++
			case errors.Is(err, client.ErrBusy):
				nBusy++
			default:
				others = append(others, err)
			}
		}()
	}
	wg.Wait()
	if len(others) > 0 {
		t.Fatalf("unexpected errors under burst: %v", others)
	}
	if nOK == 0 || nBusy == 0 {
		t.Fatalf("burst of %d: %d ok, %d busy — want both nonzero", burst, nOK, nBusy)
	}
	raw, err := c.Get(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := client.Counter(raw); got != uint64(nOK) {
		t.Errorf("counter = %d, but %d adds were acknowledged", got, nOK)
	}
	t.Logf("burst of %d: %d ok, %d busy", burst, nOK, nBusy)
}

// TestServerDrain starts a batch of slow in-flight requests, then shuts the
// server down mid-flight. Graceful drain means every dispatched request is
// finished and answered — zero lost responses, no transport errors — and the
// server refuses new work afterwards.
func TestServerDrain(t *testing.T) {
	inj := votm.NewFaultInjector(votm.FaultConfig{
		LatencyEvery: 3,
		Latency:      time.Millisecond,
	})
	srv, addr := startServer(t, server.Config{
		Shards:          2,
		WorkersPerShard: 2,
		QueueDepth:      64,
		RequestTimeout:  30 * time.Second,
		FaultHook:       inj.Hook(),
	})
	c := dialClient(t, addr, client.Options{PoolSize: 2, RequestTimeout: 30 * time.Second})

	const inflight = 24
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := c.Add(context.Background(), uint64(i), 1)
			results <- err
		}(i)
	}
	// Let the reader dispatch the whole burst (loopback reads are fast; the
	// injected latency keeps the transactions themselves in flight), then
	// drain while they are still executing.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}

	var nOK, nShutdown int
	for i := 0; i < inflight; i++ {
		switch err := <-results; {
		case err == nil:
			nOK++
		case errors.Is(err, client.ErrShutdown):
			nShutdown++ // read in the drain window, refused with a typed status
		default:
			t.Errorf("in-flight request lost to drain: %v", err)
		}
	}
	if nOK == 0 {
		t.Errorf("no in-flight request completed across the drain")
	}
	t.Logf("drained with %d completed, %d refused", nOK, nShutdown)

	// The drained server refuses new work.
	reqCtx, reqCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer reqCancel()
	if _, err := c.Get(reqCtx, 1); err == nil {
		t.Error("request succeeded after drain")
	}
}

// TestShardOfDistribution sanity-checks the shard mix: sequential keys must
// spread over shards rather than clumping (the mix differs from the hash
// map's bucket hash by design).
func TestShardOfDistribution(t *testing.T) {
	const shards, n = 8, 8000
	counts := make([]int, shards)
	for k := 0; k < n; k++ {
		counts[server.ShardOf(uint64(k), shards)]++
	}
	for i, got := range counts {
		if got < n/shards/2 || got > n/shards*2 {
			t.Errorf("shard %d holds %d of %d sequential keys (severe skew): %v",
				i, got, n, counts)
			break
		}
	}
}

// TestServerDrainMidGroup is TestServerDrain with grouping turned all the
// way up: a single slow worker per shard, BatchMax wide enough that the
// burst lands in a handful of grouped transactions, and Shutdown arriving
// while a group is mid-execution. The contract is identical — every
// dispatched request resolves (committed in its group or refused with the
// shutdown status), none hang, none are lost — and the stats must show both
// that grouping actually happened and that the queue backed up behind the
// in-flight group.
func TestServerDrainMidGroup(t *testing.T) {
	inj := votm.NewFaultInjector(votm.FaultConfig{
		LatencyEvery: 2,
		Latency:      2 * time.Millisecond,
	})
	srv, addr := startServer(t, server.Config{
		Shards:          1,
		WorkersPerShard: 1, // one worker: the burst queues behind each group
		QueueDepth:      64,
		BatchMax:        8,
		RequestTimeout:  30 * time.Second,
		FaultHook:       inj.Hook(),
	})
	c := dialClient(t, addr, client.Options{PoolSize: 2, RequestTimeout: 30 * time.Second})

	const inflight = 48
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := c.Put(context.Background(), uint64(i), []byte("v"))
			results <- err
		}(i)
	}
	// Let the dispatcher queue the burst and the worker start chewing
	// through grouped transactions, then sample stats and drain mid-group.
	time.Sleep(50 * time.Millisecond)
	stats := srv.StatsAll()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}

	var nOK, nShutdown int
	for i := 0; i < inflight; i++ {
		switch err := <-results; {
		case err == nil:
			nOK++
		case errors.Is(err, client.ErrShutdown):
			nShutdown++
		default:
			t.Errorf("request lost to mid-group drain: %v", err)
		}
	}
	if nOK == 0 {
		t.Error("no request committed across the drain")
	}
	t.Logf("drained mid-group: %d committed, %d refused", nOK, nShutdown)

	var groups, groupOps, hw uint64
	for _, st := range stats {
		groups += st.Groups
		groupOps += st.GroupOps
		if st.QueueHighWater > hw {
			hw = st.QueueHighWater
		}
	}
	if groups == 0 {
		t.Error("stats report zero grouped transactions under a 48-request burst")
	}
	if groupOps < groups {
		t.Errorf("GroupOps %d < Groups %d", groupOps, groups)
	}
	if hw == 0 {
		t.Error("queue high-water mark never moved off zero despite a single slow worker")
	}
	t.Logf("groups=%d groupOps=%d (mean %.1f) queueHighWater=%d",
		groups, groupOps, float64(groupOps)/float64(groups), hw)
}

// TestProtocolErrorReply speaks raw TCP at the server and violates the
// framing rules. The server must answer with the reserved OpError frame
// (ID 0, BAD_REQUEST, detail attached) before hanging up — not close
// silently, and definitely not the old behaviour of disguising the abort
// as a PING response.
func TestProtocolErrorReply(t *testing.T) {
	_, addr := startServer(t, server.Config{Shards: 1, WorkersPerShard: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	// A well-formed length prefix carrying a bad protocol version.
	if _, err := nc.Write([]byte{2, 0, 0, 0, 0xFF, 0x00}); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(nc)
	if err != nil {
		t.Fatalf("no abort frame came back: %v", err)
	}
	if resp.Op != wire.OpError || resp.ID != 0 {
		t.Fatalf("abort frame is Op=%v ID=%d, want OpError ID=0", resp.Op, resp.ID)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("abort status = %v, want BAD_REQUEST", resp.Status)
	}
	if len(resp.Value) == 0 {
		t.Error("abort frame carries no detail")
	}
	// After the abort the server hangs up.
	if _, err := wire.ReadResponse(nc); err == nil {
		t.Error("connection still serving after protocol abort")
	}
}

// TestStatsStaticBatchMeters: STATS reports the one batching path. Every
// shard's effectiveBatch is the configured BatchMax (clamped to QueueDepth),
// and admissionRejects, kept in the v6 layout, reads 0.
func TestStatsStaticBatchMeters(t *testing.T) {
	for _, tc := range []struct {
		cfg  server.Config
		want uint64
	}{
		{server.Config{Shards: 2}, 16},
		{server.Config{Shards: 2, BatchMax: 4}, 4},
		{server.Config{Shards: 2, BatchMax: 64, QueueDepth: 32}, 32},
	} {
		_, addr := startServer(t, tc.cfg)
		c := dialClient(t, addr, client.Options{})
		ctx := context.Background()
		for k := uint64(0); k < 64; k++ {
			if _, err := c.Put(ctx, k, []byte("v")); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
		}
		stats, err := c.Stats(ctx, wire.AllShards)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			if st.EffectiveBatch != tc.want || st.AdmissionRejects != 0 {
				t.Errorf("BatchMax %d, QueueDepth %d: shard %d reports effectiveBatch %d, admissionRejects %d; want %d and 0",
					tc.cfg.BatchMax, tc.cfg.QueueDepth, st.Shard, st.EffectiveBatch, st.AdmissionRejects, tc.want)
			}
		}
	}
}
