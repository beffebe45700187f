package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm/client"
	"votm/internal/cluster"
	"votm/internal/server"
	"votm/wire"
)

// The leader-kill test runs the cluster failure path for real: two votmd
// processes (a leader and a follower replicating its WAL streams) join a
// shard-map service hosted by the parent, the parent SIGKILLs the leader
// mid-burst, the health monitor promotes the follower, and the routing
// client rides the failover. SIGKILL is the real thing — nothing is
// flushed cooperatively, so everything the promoted follower serves it
// must have received through replication before the kill.
//
// Oracle, per lane (each lane PUTs a strictly increasing sequence to one
// key, sequentially, and keeps writing across the failover): the final
// value is in [lastAcked, lastAttempted]. The lower bound is the
// acceptance criterion — an acknowledged write was semi-synchronously
// replicated, so the promoted follower serves it; the upper bound rejects
// phantoms. Writes the kill left mid-flight are ambiguous and allowed
// either way, exactly like the single-node crash soak.

const (
	clusterChildEnv     = "VOTM_CLUSTER_CHILD"
	clusterChildDirEnv  = "VOTM_CLUSTER_DIR"
	clusterChildSeedEnv = "VOTM_CLUSTER_SEED"

	clusterKillShards = 2
	addrFileName      = "addr"
)

// TestClusterNodeChild is the re-executed child: one votmd cluster member
// joining the parent's seed, serving until SIGKILLed.
func TestClusterNodeChild(t *testing.T) {
	dir := os.Getenv(clusterChildDirEnv)
	seed := os.Getenv(clusterChildSeedEnv)
	if os.Getenv(clusterChildEnv) == "" || dir == "" || seed == "" {
		t.Skip("cluster child; driven by TestClusterLeaderKillPromotion")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("child: listen: %v", err)
	}
	addr := ln.Addr().String()
	// Never detach the follower in-test: an acked write must imply the
	// follower has it, or the promotion oracle below is vacuous.
	m, err := cluster.NewMember(cluster.Config{Join: seed, Replicas: 1, Advertise: addr, ReplTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("child: member: %v", err)
	}
	srv, err := server.New(server.Config{
		Shards:          clusterKillShards,
		WorkersPerShard: 2,
		BatchMax:        8,
		Durability:      server.DurabilityGroup,
		DataDir:         dir,
		SnapshotEvery:   time.Hour,
		Cluster:         m,
	})
	if err != nil {
		t.Fatalf("child: server.New: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()

	tmp := filepath.Join(dir, addrFileName+".tmp")
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		t.Fatalf("child: write addr: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, addrFileName)); err != nil {
		t.Fatalf("child: publish addr: %v", err)
	}
	select {} // wait for SIGKILL
}

// startClusterChild launches one votmd child joined to seedAddr and returns
// its advertised address plus a kill func.
func startClusterChild(t *testing.T, dir, seedAddr string) (string, func()) {
	t.Helper()
	addrFile := filepath.Join(dir, addrFileName)
	_ = os.Remove(addrFile)

	cmd := exec.Command(os.Args[0], "-test.run=TestClusterNodeChild$", "-test.v=false")
	cmd.Env = append(os.Environ(),
		clusterChildEnv+"=1", clusterChildDirEnv+"="+dir, clusterChildSeedEnv+"="+seedAddr)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatalf("start cluster child: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			killed := false
			kill := func() {
				if killed {
					return
				}
				killed = true
				_ = cmd.Process.Kill()
				<-exited
			}
			t.Cleanup(kill)
			return string(b), kill
		}
		select {
		case err := <-exited:
			t.Fatalf("cluster child exited before serving: %v\n%s", err, childOut.String())
		default:
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("cluster child did not publish an address\n%s", childOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterLeaderKillPromotion(t *testing.T) {
	if os.Getenv(clusterChildEnv) != "" {
		t.Skip("child process must not recurse")
	}
	if testing.Short() {
		t.Skip("subprocess soak; skipped in -short")
	}

	// The parent hosts the shard-map service standalone, so it survives the
	// leader kill (in production any node — or a `votmd -cluster-seed`
	// process — plays this role).
	seedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("seed listen: %v", err)
	}
	svc := cluster.NewService(clusterKillShards, 1, t.Logf)
	go func() { _ = cluster.Serve(seedLn, svc) }()
	t.Cleanup(svc.Close)
	seedAddr := seedLn.Addr().String()

	addrL, killL := startClusterChild(t, t.TempDir(), seedAddr)
	addrF, _ := startClusterChild(t, t.TempDir(), seedAddr)

	// Health monitoring starts after both children are up: fast probes so
	// the dead leader is noticed in a few hundred milliseconds.
	svc.StartHealth(50*time.Millisecond, 3, 100*time.Millisecond)

	m := svc.Snapshot()
	if len(m.Nodes) != 2 {
		t.Fatalf("map has %d nodes, want 2: %+v", len(m.Nodes), m)
	}
	idOf := func(addr string) uint32 {
		for _, n := range m.Nodes {
			if n.Addr == addr {
				return n.ID
			}
		}
		t.Fatalf("node %s not in map %+v", addr, m)
		return 0
	}
	idL, idF := idOf(addrL), idOf(addrF)
	for i := range m.Shards {
		if m.Shards[i].Leader != idL {
			t.Fatalf("shard %d led by node %d, want first joiner %d", i, m.Shards[i].Leader, idL)
		}
	}

	cl, err := client.DialCluster(seedAddr, client.Options{
		PoolSize:       1,
		BusyRetries:    10,
		BusyBackoff:    2 * time.Millisecond,
		MapRetries:     10,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cl.Close()

	// One sequential PUT lane per shard; lanes keep writing through the
	// kill, tolerating the failover window (errors are ambiguous attempts).
	type lane struct {
		key              uint64
		acked, attempted atomic.Uint64 // read by the main goroutine mid-burst
		lastErr          error
	}
	lanes := make([]*lane, clusterKillShards)
	for sh := range lanes {
		k := uint64(1_000 * (sh + 1))
		for wire.ShardOf(k, clusterKillShards) != sh {
			k++
		}
		lanes[sh] = &lane{key: k}
	}
	ackedNow := func() uint64 {
		var sum uint64
		for _, ln := range lanes {
			sum += ln.acked.Load()
		}
		return sum
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
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
				ln.attempted.Store(seq)
				if _, err := cl.Put(ctx, ln.key, val); err != nil {
					ln.lastErr = fmt.Errorf("put seq %d: %w", seq, err)
					continue // failover window: ambiguous, keep going
				}
				ln.acked.Store(seq)
			}
		}(ln)
	}

	// Let the lanes build replicated history, then kill the leader.
	waitFor := func(cond func() bool, d time.Duration, what string) {
		t.Helper()
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor(func() bool { return ackedNow() >= 40 }, 15*time.Second, "pre-kill traffic")
	preKillAcked := make([]uint64, len(lanes))
	for i, ln := range lanes {
		preKillAcked[i] = ln.acked.Load()
	}
	killL()

	// The health monitor must notice, the service must promote the
	// follower, and the lanes must make progress against it.
	waitFor(func() bool {
		m := svc.Snapshot()
		for i := range m.Shards {
			if m.Shards[i].Leader != idF {
				return false
			}
		}
		return true
	}, 10*time.Second, "follower promotion in the shard map")
	post := ackedNow()
	waitFor(func() bool { return ackedNow() >= post+40 }, 20*time.Second, "post-failover traffic")
	close(stop)
	wg.Wait()

	// Judge the failover against a fresh routing client (a newcomer must
	// converge onto the promoted follower with no history).
	cl2, err := client.DialCluster(seedAddr, client.Options{
		PoolSize: 1, MapRetries: 10, BusyRetries: 10, BusyBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("post-kill DialCluster: %v", err)
	}
	defer cl2.Close()
	ctx := context.Background()
	for li, ln := range lanes {
		v, err := cl2.Get(ctx, ln.key)
		if err != nil {
			t.Fatalf("lane %d: get key %d: %v (last lane err: %v)", li, ln.key, err, ln.lastErr)
		}
		got := binary.LittleEndian.Uint64(v)
		acked, attempted := ln.acked.Load(), ln.attempted.Load()
		if got < acked || got > attempted {
			t.Errorf("lane %d key %d: value %d outside [acked %d, attempted %d]: %s",
				li, ln.key, got, acked, attempted,
				map[bool]string{true: "acknowledged write lost across promotion", false: "phantom write"}[got < acked])
		}
		if acked <= preKillAcked[li] {
			t.Errorf("lane %d made no acked progress after the failover (pre-kill %d, final %d)",
				li, preKillAcked[li], acked)
		}
	}
	t.Logf("leader-kill: lanes acked %v pre-kill, final acked/attempted %d/%d and %d/%d, promoted node %d",
		preKillAcked, lanes[0].acked.Load(), lanes[0].attempted.Load(),
		lanes[1].acked.Load(), lanes[1].attempted.Load(), idF)
}
