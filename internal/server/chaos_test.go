package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"votm"
	"votm/client"
	"votm/internal/server"
	"votm/wire"
)

// TestServerChaos runs the serving layer under full fault injection —
// forced conflicts, user panics in the middle of request transactions, and
// injected latency — and asserts the failure-containment contract:
//
//   - an injected panic surfaces to that one client as a typed TxFault
//     response; the connection, the worker and every other request live on;
//   - a TxFault response means the transaction did NOT commit, so a per-key
//     oracle over the acknowledged ADDs stays uint64-exact;
//   - after the storm the same clients still serve traffic (no wedged
//     connections or views);
//   - draining the battered server leaks no goroutines.
//
// The storm doubles as the liveness soak for the dispatch path.
func TestServerChaos(t *testing.T) {
	t.Run("ring", runServerChaos)
}

// roundCoordinators counts the live round-coordinator goroutines (one per
// running server) by their entry frame.
func roundCoordinators() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*roundCoordinator).loop")
}

func runServerChaos(t *testing.T) {
	const nClients = 8
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	baseGoroutines := runtime.NumGoroutine()
	baseCoordinators := roundCoordinators()

	inj := votm.NewFaultInjector(votm.FaultConfig{
		ConflictEvery: 29,
		PanicEvery:    41, // crash mid-body; the runtime must roll back
		LatencyEvery:  151,
		Latency:       20 * time.Microsecond,
	})
	cfg := server.Config{
		Shards:             2,
		WorkersPerShard:    4,
		QueueDepth:         128,
		BatchMax:           16, // fault injection must fire inside grouped transactions
		AdjustEvery:        64,
		MaxConflictRetries: 8,
		RequestTimeout:     30 * time.Second,
		FaultHook:          inj.Hook(),
	}
	srv, addr := startServer(t, cfg)

	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = uint64(i * 101)
	}

	type tally map[uint64]uint64
	tallies := make([]tally, nClients)
	faults := make([]int, nClients)
	clients := make([]*client.Client, nClients)
	errCh := make(chan error, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		c, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("dial client %d: %v", ci, err)
		}
		clients[ci] = c
		t.Cleanup(func() { _ = c.Close() })
		tallies[ci] = make(tally)
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)*104729 + 7))
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				key := keys[rng.Intn(len(keys))]
				var err error
				switch op := rng.Intn(8); {
				case op < 2:
					_, err = c.Get(ctx, key)
					if errors.Is(err, client.ErrNotFound) {
						err = nil
					}
				case op == 2:
					// A two-shard ADD pair: a round on the server's coordinator,
					// so the storm's admission faults land there too.
					other := keys[rng.Intn(len(keys))]
					for srv.Shard(other) == srv.Shard(key) {
						other = keys[rng.Intn(len(keys))]
					}
					delta := uint64(rng.Intn(500) + 1)
					_, err = c.Atomic(ctx, []wire.Sub{
						{Kind: wire.SubAdd, Key: key, Delta: delta}, {Kind: wire.SubAdd, Key: other, Delta: delta}})
					if err == nil {
						tallies[ci][key] += delta
						tallies[ci][other] += delta
					}
				case op == 3:
					// A SCAN page rides the same coordinator: every counter, in
					// key order, or a typed fault.
					sc, last, n := c.Scan(0, 1<<62, client.ScanOptions{PageSize: 4}), uint64(0), 0
					for sc.Next(ctx) {
						if k := sc.Entry().Key; n > 0 && k <= last {
							err = fmt.Errorf("scan: key %d after %d", k, last)
						} else {
							last, n = k, n+1
						}
					}
					if err == nil {
						err = sc.Err()
					}
				default:
					delta := uint64(rng.Intn(500) + 1)
					if _, err = c.Add(ctx, key, delta); err == nil {
						tallies[ci][key] += delta
					}
				}
				switch {
				case err == nil:
				case errors.Is(err, client.ErrTxFault):
					// The injected panic was contained: this request failed
					// with a typed error and the connection keeps working.
					faults[ci]++
				default:
					errCh <- fmt.Errorf("client %d round %d: %w", ci, r, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	stats := inj.Stats()
	if stats.Panics == 0 || stats.Conflicts == 0 {
		t.Fatalf("injector idle (%+v); the chaos run proved nothing", stats)
	}
	totalFaults := 0
	for _, n := range faults {
		totalFaults += n
	}
	if totalFaults == 0 {
		t.Errorf("%d panics injected but no client saw a TxFault response", stats.Panics)
	}

	// The same battered connections still serve traffic, and the oracle
	// holds: only acknowledged ADDs are reflected in the counters. Reads
	// retry past lingering injected panics.
	want := make(tally)
	for _, tl := range tallies {
		for k, v := range tl {
			want[k] += v
		}
	}
	ctx := context.Background()
	for k, sum := range want {
		var raw []byte
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			raw, err = clients[int(k)%nClients].Get(ctx, k)
			if !errors.Is(err, client.ErrTxFault) {
				break
			}
		}
		if err != nil {
			t.Fatalf("post-chaos get %d: %v", k, err)
		}
		got, err := client.Counter(raw)
		if err != nil {
			t.Fatalf("post-chaos decode %d: %v", k, err)
		}
		if got != sum {
			t.Errorf("key %d: server holds %d, acknowledged sum is %d", k, got, sum)
		}
	}

	// Panic containment is visible in the shard totals too.
	shardStats, err := clients[0].Stats(ctx, wire.AllShards)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var panics, groups, groupOps uint64
	for _, st := range shardStats {
		panics += st.Panics
		groups += st.Groups
		groupOps += st.GroupOps
	}
	if panics == 0 {
		t.Errorf("injector reports %d panics but no shard counted one", stats.Panics)
	}
	// With BatchMax 16 and this much pressure the storm must have exercised
	// grouped execution — otherwise the faults above never fired inside a
	// grouped transaction and the soak proves nothing about batching.
	if groups == 0 {
		t.Error("chaos soak completed without a single grouped transaction")
	}
	if groupOps < groups {
		t.Errorf("GroupOps %d < Groups %d", groupOps, groups)
	}

	// Tear everything down and verify nothing leaked: no worker, connection,
	// writer or demux goroutine may survive the drain.
	for _, c := range clients {
		_ = c.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("post-chaos drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Allow slack for runtime-internal goroutines (timers, GC).
		if n := runtime.NumGoroutine(); n <= baseGoroutines+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The count above has slack; the round coordinator is checked by name.
	if n := roundCoordinators(); n != baseCoordinators {
		t.Errorf("%d round coordinator goroutines after the drain, %d before the server started", n, baseCoordinators)
	}
	if rs := srv.RoundStats(); rs.Rounds == 0 || rs.Pages == 0 || rs.Pages == rs.Tasks {
		t.Errorf("chaos soak left ATOMIC rounds or SCAN pages unexercised: %+v", rs)
	}
	t.Logf("chaos: %d injected panics, %d client-visible faults, injector %+v",
		stats.Panics, totalFaults, stats)
}
