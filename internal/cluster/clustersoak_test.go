package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"votm/client"
	"votm/internal/cluster"
	"votm/internal/server"
	"votm/wire"
)

// The cluster soak boots a 3-node loopback cluster (node A hosts the
// shard-map seed; B and C join), runs writer lanes through the routing
// client, and hands shards off between nodes while the traffic is live.
//
// Oracle, per lane (each lane PUTs a strictly increasing sequence number to
// one key, sequentially): after the dust settles the stored value is in
// [lastAcked, lastAttempted] — an acknowledged write survived every
// handoff (it was replicated and shipped with the shard), and nothing
// materialized that was never sent. The routing client must absorb every
// BUSY (quiesce window) and WRONG_SHARD (post-reassignment) transparently.

const clusterSoakShards = 3

// startClusterNode pre-binds a loopback listener (the advertised address
// must be known before New — joining happens inside it) and boots a
// cluster member on it. mods adjust the configuration before New.
func startClusterNode(t *testing.T, dir, seedAddr string, replicas int, mods ...func(*server.Config)) (*server.Server, *cluster.Member, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	cfg := server.Config{
		Shards:          clusterSoakShards,
		WorkersPerShard: 2,
		BatchMax:        8,
		Durability:      server.DurabilityGroup,
		DataDir:         dir,
		SnapshotEvery:   time.Hour, // the drain writes final snapshots
		Logf:            t.Logf,
	}
	m, err := cluster.NewMember(cluster.Config{Seed: seedAddr == "", Join: seedAddr, Replicas: replicas,
		Advertise: addr, ReplTimeout: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = m
	for _, mod := range mods {
		mod(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		_ = ln.Close()
		t.Fatalf("cluster node %s: server.New: %v", addr, err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("node %s shutdown: %v", addr, err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("node %s serve: %v", addr, err)
		}
	})
	return srv, m, addr
}

// nodeIDByAddr resolves a node's seed-assigned id from its advertised addr.
func nodeIDByAddr(t *testing.T, m wire.ShardMap, addr string) uint32 {
	t.Helper()
	for _, n := range m.Nodes {
		if n.Addr == addr {
			return n.ID
		}
	}
	t.Fatalf("node %s not in shard map %+v", addr, m)
	return 0
}

// soakKeyOnShard returns the first key >= base that routes to shard.
func soakKeyOnShard(shard int, base uint64) uint64 {
	for k := base; ; k++ {
		if wire.ShardOf(k, clusterSoakShards) == shard {
			return k
		}
	}
}

func TestClusterHandoffSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node soak; skipped in -short")
	}
	baseGoroutines := runtime.NumGoroutine()

	srvA, mA, addrA := startClusterNode(t, t.TempDir(), "", 2)
	srvB, mB, addrB := startClusterNode(t, t.TempDir(), addrA, 2)
	srvC, _, addrC := startClusterNode(t, t.TempDir(), addrA, 2)

	cl, err := client.DialCluster(addrA, client.Options{
		PoolSize:       2,
		BusyRetries:    12,
		BusyBackoff:    time.Millisecond,
		MapRetries:     8,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cl.Close()

	m := cl.Map()
	if len(m.Nodes) != 3 {
		t.Fatalf("map has %d nodes after three joins, want 3: %+v", len(m.Nodes), m)
	}
	idB := nodeIDByAddr(t, m, addrB)
	idC := nodeIDByAddr(t, m, addrC)
	startEpoch := m.Epoch

	// One writer lane per shard, plus one extra lane hammering shard 0 (the
	// shard that moves twice).
	type soakLane struct {
		key              uint64
		acked, attempted uint64
		errs             []error
	}
	lanes := []*soakLane{
		{key: soakKeyOnShard(0, 1_000)},
		{key: soakKeyOnShard(1, 2_000)},
		{key: soakKeyOnShard(2, 3_000)},
		{key: soakKeyOnShard(0, 4_000)},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *soakLane) {
			defer wg.Done()
			ctx := context.Background()
			val := make([]byte, 8)
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				binary.LittleEndian.PutUint64(val, seq)
				ln.attempted = seq
				if _, err := cl.Put(ctx, ln.key, val); err != nil {
					ln.errs = append(ln.errs, fmt.Errorf("put seq %d: %w", seq, err))
					return
				}
				ln.acked = seq
			}
		}(ln)
	}

	// Live handoffs while the lanes write: shard 0 A->B, shard 1 A->C,
	// then shard 0 again B->C (the second hop must be issued on B, the
	// leader the first hop installed).
	hop := func(m *cluster.Member, shard int, target uint32) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := m.Handoff(shard, target)
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("handoff shard %d -> node %d: %v", shard, target, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	time.Sleep(100 * time.Millisecond) // let the lanes get going
	hop(mA, 0, idB)
	time.Sleep(100 * time.Millisecond)
	hop(mA, 1, idC)
	time.Sleep(100 * time.Millisecond)
	hop(mB, 0, idC)
	time.Sleep(200 * time.Millisecond) // traffic across the settled map

	close(stop)
	wg.Wait()

	for li, ln := range lanes {
		for _, e := range ln.errs {
			t.Errorf("lane %d (key %d): %v", li, ln.key, e)
		}
	}

	// Every lane's key must hold a value in [acked, attempted], read through
	// a FRESH routing client (proves a newcomer converges to the new map).
	cl2, err := client.DialCluster(addrA, client.Options{
		PoolSize: 1, MapRetries: 8, BusyRetries: 12, BusyBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("post-soak DialCluster: %v", err)
	}
	defer cl2.Close()
	ctx := context.Background()
	for li, ln := range lanes {
		v, err := cl2.Get(ctx, ln.key)
		if err != nil {
			if ln.attempted == 0 && errors.Is(err, wire.ErrNotFound) {
				continue
			}
			t.Fatalf("lane %d: get key %d: %v", li, ln.key, err)
		}
		got := binary.LittleEndian.Uint64(v)
		if got < ln.acked || got > ln.attempted {
			t.Errorf("lane %d key %d: value %d outside [acked %d, attempted %d]: %s",
				li, ln.key, got, ln.acked, ln.attempted,
				map[bool]string{true: "acknowledged write lost", false: "phantom write"}[got < ln.acked])
		}
		if ln.acked < 10 {
			t.Errorf("lane %d made only %d acked writes; soak too quiet to mean anything", li, ln.acked)
		}
	}

	// The surviving traffic client converged past every reassignment.
	finalMap := cl2.Map()
	if finalMap.Epoch <= startEpoch {
		t.Errorf("map epoch %d did not advance past %d over three handoffs", finalMap.Epoch, startEpoch)
	}
	if rt := finalMap.Route(0); rt == nil || rt.Leader != idC {
		t.Errorf("shard 0 leader = %+v, want node %d after the second hop", rt, idC)
	}
	if rt := finalMap.Route(1); rt == nil || rt.Leader != idC {
		t.Errorf("shard 1 leader = %+v, want node %d", rt, idC)
	}
	if cl.Epoch() < finalMap.Epoch {
		// cl absorbed the redirects mid-traffic; it must have refetched.
		t.Logf("traffic client epoch %d, map epoch %d (ok if no post-hop traffic hit it)", cl.Epoch(), finalMap.Epoch)
	}

	// Handoff counters: A shipped two shards, B one.
	statsA, errA := cl2.Stats(ctx, wire.AllShards)
	if errA != nil {
		t.Fatalf("stats: %v", errA)
	}
	var hops uint64
	for _, st := range statsA {
		hops += st.Handoffs
	}
	_ = statsA

	// Drain everything (cleanups re-run Shutdown idempotently) and verify
	// the cluster layer leaks no goroutines: no sender, watcher, health
	// prober, worker or conn goroutine may survive.
	_ = cl.Close()
	_ = cl2.Close()
	for _, srv := range []*server.Server{srvC, srvB, srvA} {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<17)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after cluster drain: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("cluster soak: lanes acked %d/%d/%d/%d, %d handoffs recorded, final epoch %d",
		lanes[0].acked, lanes[1].acked, lanes[2].acked, lanes[3].acked, hops, finalMap.Epoch)
}

// TestClusterFollowerPastInitialHeap takes a follower through all three ways
// state reaches it — the bootstrap install of a leader that already holds far
// more than a shard's initial heap, the REPLICATE stream of as much again,
// and a live handoff that wipes and re-installs one shard — and then reads
// every acknowledged key back, shard 0 from the promoted node. The follower's
// redo used to allocate index nodes without growing the view: the install
// failed at the first Brk boundary and the follower never attached.
func TestClusterFollowerPastInitialHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node test; skipped in -short")
	}
	small := func(cfg *server.Config) { cfg.ShardWords = 1 << 10 }
	srvA, mA, addrA := startClusterNode(t, t.TempDir(), "", 2, small)
	cl, err := client.DialCluster(addrA, client.Options{
		PoolSize: 4, BusyRetries: 12, BusyBackoff: time.Millisecond, MapRetries: 8, RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Every other key holds 8 bytes, the rest 64..127: blocks as small as or a
	// few times larger than index nodes, so either kind of allocation may be
	// the one that meets a full heap. 800 keys a shard per phase, about 14
	// words each: each phase crosses a growth boundary on every shard.
	value := func(k uint64) []byte {
		val := bytes.Repeat([]byte{byte(k), byte(k >> 8)}, 4+(int(k%2)*(28+int(k%32))))
		binary.LittleEndian.PutUint64(val, k)
		return val
	}
	load := func(lo, hi uint64) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := uint64(0); w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := lo + w; k < hi; k += 8 {
					if _, err := cl.Put(ctx, k, value(k)); err != nil {
						errs <- fmt.Errorf("put %d: %w", k, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	keysPerShard := func(srv *server.Server) (n [clusterSoakShards]uint64) {
		for _, st := range srv.StatsAll() {
			n[st.Shard] += st.Keys
		}
		return n
	}
	follows := func(srv *server.Server, what string) {
		t.Helper()
		want := keysPerShard(srvA)
		deadline := time.Now().Add(20 * time.Second)
		for keysPerShard(srv) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the follower holds %v keys per shard, the leader %v", what, keysPerShard(srv), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	const n = 2400
	load(0, n)
	srvB, _, addrB := startClusterNode(t, t.TempDir(), addrA, 2, small)
	follows(srvB, "bootstrap install")
	load(n, 2*n)
	follows(srvB, "REPLICATE stream")

	// A client dialled now sees B in the map; it also reads the keys back, so
	// the reads prove a newcomer is routed to the promoted node.
	cl2, err := client.DialCluster(addrA, client.Options{PoolSize: 1, BusyRetries: 12, BusyBackoff: time.Millisecond, MapRetries: 8})
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cl2.Close()
	idB := nodeIDByAddr(t, cl2.Map(), addrB)
	if err := mA.Handoff(0, idB); err != nil {
		t.Fatalf("handoff shard 0 -> B: %v", err)
	}
	if got, want := keysPerShard(srvB)[0], keysPerShard(srvA)[0]; got != want || want == 0 {
		t.Fatalf("after the handoff B holds %d keys of shard 0, A shipped %d", got, want)
	}
	for k := uint64(0); k < 2*n; k++ {
		val, err := cl2.Get(ctx, k)
		if err != nil || !bytes.Equal(val, value(k)) {
			t.Fatalf("key %d (shard %d) after the handoff: %d bytes, %v", k, wire.ShardOf(k, clusterSoakShards), len(val), err)
		}
	}
	finalMap := cl2.Map()
	if rt := finalMap.Route(0); rt == nil || rt.Leader != idB {
		t.Errorf("shard 0 leader = %+v, want node %d", rt, idB)
	}
}
