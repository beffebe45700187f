package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm/client"
	"votm/internal/trace"
	"votm/wire"
)

func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// TestSplitShardMigratesKeys exercises splitShard white-box: keys bisect by
// the subMix bit, values survive, counters agree, and routing is a
// partition (every key routes to exactly one sub-shard that holds it). The
// second case migrates a half several times the child's initial heap: the
// child's populate must grow it.
func TestSplitShardMigratesKeys(t *testing.T) {
	t.Run("100 keys", func(t *testing.T) { testSplitShardMigratesKeys(t, 100) })
	t.Run("past the child's initial heap", func(t *testing.T) { testSplitShardMigratesKeys(t, 4000) })
}

func testSplitShardMigratesKeys(t *testing.T, n uint64) {
	var (
		logMu sync.Mutex
		lines []string
	)
	logf := func(format string, args ...any) {
		logMu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	s, err := New(Config{Shards: 1, ShardWords: 1 << 12, WorkersPerShard: 2, Logf: logf})
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

	g := s.shards[0]
	value := func(k uint64) []byte { return []byte(fmt.Sprintf("value-%d", k)) }
	root := (*g.subs.Load())[0]
	for k := uint64(0); k < n; k++ {
		if _, err := root.testPut(ctx, th, k, value(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}

	// Split twice: the root, then the root again (its second bit).
	for round := 1; round <= 2; round++ {
		target := (*g.subs.Load())[0]
		if err := s.splitShard(g, target, fmt.Sprintf("round %d", round)); err != nil {
			t.Fatalf("split round %d: %v", round, err)
		}
		if got := len(*g.subs.Load()); got != round+1 {
			t.Fatalf("round %d: %d sub-shards, want %d", round, got, round+1)
		}
	}
	if got := s.Repartitions(); got != 2 {
		t.Fatalf("Repartitions = %d, want 2", got)
	}
	// One shard-split decision per executed split, old → new sub-shard
	// count, carrying the reason it was given.
	log := s.rt.Decisions()
	if got := log.Count(trace.ShardSplit); uint64(got) != s.Repartitions() {
		t.Fatalf("%d shard-split decisions, Repartitions = %d", got, s.Repartitions())
	}
	var splits []trace.Decision
	for _, d := range log.Entries() {
		if d.Loop == trace.ShardSplit {
			splits = append(splits, d)
		}
	}
	for i, d := range splits {
		if d.Subject != g.id || d.From != i+1 || d.To != i+2 || d.Reason != fmt.Sprintf("round %d", i+1) {
			t.Errorf("shard-split decision %d = %+v", i, d)
		}
		// The split's log line is printed from its decision.
		logMu.Lock()
		if want := "votmd: " + d.String(); !slices.Contains(lines, want) {
			t.Errorf("no log line %q in %q", want, lines)
		}
		logMu.Unlock()
	}

	// Every key must be owned by exactly the sub-shard routing claims, with
	// its original value; sub-shard key counters must sum to n.
	var total int64
	perSub := make(map[*shard]int64)
	for k := uint64(0); k < n; k++ {
		owner := g.route(k)
		got, found, err := owner.testGet(ctx, th, k)
		if err != nil || !found {
			t.Fatalf("key %d: get on routed owner: found=%v err=%v", k, found, err)
		}
		if !bytes.Equal(got, value(k)) {
			t.Fatalf("key %d: value %q, want %q", k, got, value(k))
		}
		perSub[owner]++
		// No other sub-shard may still hold the key.
		for _, sh := range *g.subs.Load() {
			if sh == owner {
				continue
			}
			if _, stale, _ := sh.testGet(ctx, th, k); stale {
				t.Fatalf("key %d: present on non-owner sub-shard too", k)
			}
		}
	}
	for _, sh := range *g.subs.Load() {
		if c := sh.keys.Load(); c != perSub[sh] {
			t.Fatalf("sub-shard counter %d, observed %d keys", c, perSub[sh])
		}
		total += sh.keys.Load()
	}
	if total != int64(n) {
		t.Fatalf("key counters sum to %d, want %d", total, n)
	}
	if len(perSub) < 2 {
		t.Fatalf("keys landed on %d sub-shards, want a real bisection", len(perSub))
	}
}

// TestSplitUnderClientLoad splits shards while real clients hammer the
// server over TCP. The client's BUSY retry layer must make the splits
// invisible: every operation eventually succeeds and reads see exactly the
// last written value. STATS must report the splits.
func TestSplitUnderClientLoad(t *testing.T) {
	s, err := New(Config{
		Shards: 2, ShardWords: 1 << 12, WorkersPerShard: 2, QueueDepth: 64,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln := listenLocal(t)
	go func() { _ = s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	c, err := client.Dial(ln.Addr().String(), client.Options{
		BusyRetries: 20, BusyBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const keys = 64
	for k := uint64(0); k < keys; k++ {
		if _, err := c.Put(ctx, k, []byte(fmt.Sprintf("seed-%d", k))); err != nil {
			t.Fatalf("seed put %d: %v", k, err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := uint64((w*31 + i) % keys)
				want := []byte(fmt.Sprintf("w%d-%d", w, i))
				if _, err := c.Put(ctx, k, want); err != nil {
					errCh <- fmt.Errorf("put %d: %w", k, err)
					return
				}
				if _, err := c.Get(ctx, k); err != nil {
					errCh <- fmt.Errorf("get %d: %w", k, err)
					return
				}
			}
		}(w)
	}

	// Split every group twice, spaced out while traffic flows.
	for round := 0; round < 2; round++ {
		for _, g := range s.shards {
			target := (*g.subs.Load())[0]
			if err := s.splitShard(g, target, "test"); err != nil {
				t.Errorf("split shard %d round %d: %v", g.id, round, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("worker: %v", err)
	}

	// Reads after the dust settles must still see every key.
	for k := uint64(0); k < keys; k++ {
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatalf("final get %d: %v", k, err)
		}
	}

	stats, err := c.Stats(ctx, wire.AllShards)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(stats) != 6 { // 2 groups × 3 sub-shards after 2 splits each
		t.Fatalf("stats entries = %d, want 6", len(stats))
	}
	var reps uint64
	for _, st := range stats {
		if st.Shard == 0 {
			reps = st.Repartitions
		}
	}
	if reps != 2 {
		t.Fatalf("shard 0 Repartitions = %d, want 2", reps)
	}
}

func TestShouldSplitAdvisor(t *testing.T) {
	if ok, why := shouldSplit(shardLoad{Keys: 10, AbortRate: 0.9}); ok {
		t.Errorf("split a near-empty shard: %s", why)
	}
	if ok, _ := shouldSplit(shardLoad{Keys: 2048, AbortRate: 0.5}); !ok {
		t.Error("no split for a contended shard")
	}
	if ok, _ := shouldSplit(shardLoad{Keys: 2048, QueueLen: 100, QueueCap: 128}); !ok {
		t.Error("no split for an overloaded queue")
	}
	if ok, _ := shouldSplit(shardLoad{Keys: 2048, Quota: 1, QueueLen: 5, QueueCap: 128}); !ok {
		t.Error("no split for a lock-mode shard with queued work")
	}
	if ok, why := shouldSplit(shardLoad{Keys: 2048, AbortRate: 0.01, Quota: 4}); ok {
		t.Errorf("split a calm shard: %s", why)
	}

	// The fixed thresholds, at their boundaries: 1024 keys, abort rate 0.25,
	// a half-full queue.
	bounds := []struct {
		load shardLoad
		want bool
	}{
		{shardLoad{Keys: 1023, AbortRate: 0.9}, false},
		{shardLoad{Keys: 1024, AbortRate: 0.9}, true},
		{shardLoad{Keys: 1024, AbortRate: 0.25}, true},
		{shardLoad{Keys: 1024, AbortRate: 0.249}, false},
		{shardLoad{Keys: 1024, QueueLen: 64, QueueCap: 128}, true},
		{shardLoad{Keys: 1024, QueueLen: 63, QueueCap: 128, Quota: 4}, false},
	}
	for _, b := range bounds {
		if ok, why := shouldSplit(b.load); ok != b.want {
			t.Errorf("shouldSplit(%+v) = %v (%s), want %v", b.load, ok, why, b.want)
		}
	}
}
