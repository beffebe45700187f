package server_test

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"votm/internal/cluster"
	"votm/internal/server"
	"votm/wire"
)

// clusterOps are the six opcodes of the cluster plane.
var clusterOps = []wire.Request{
	{Op: wire.OpShardMapGet},
	{Op: wire.OpShardMapWatch, Key: 1},
	{Op: wire.OpShardMapJoin, Value: []byte("127.0.0.1:1")},
	{Op: wire.OpShardMapUpdate, Shard: 0, Key: 1},
	{Op: wire.OpReplicate, Shard: 0, Key: 1, Value: []byte("frames")},
	{Op: wire.OpHandoff, Shard: 0, Phase: wire.HandoffBegin, Key: 1},
}

// exchange writes req on nc and reads its answer.
func exchange(t *testing.T, nc net.Conn, req *wire.Request) *wire.Response {
	t.Helper()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteRequest(nc, req); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponse(nc)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestNoMemberRefusesClusterOps: a server with no cluster plane answers each
// of the six cluster opcodes BAD_REQUEST and executes nothing — no group, no
// append, and a HANDOFF BEGIN wipes no key.
func TestNoMemberRefusesClusterOps(t *testing.T) {
	srv, addr := startServer(t, server.Config{Shards: 1, WorkersPerShard: 1,
		Durability: server.DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if r := exchange(t, nc, &wire.Request{Op: wire.OpPut, ID: 1, Key: 7, Value: []byte("kept")}); r.Status != wire.StatusOK {
		t.Fatalf("put: %v", r.Status)
	}
	before := srv.StatsAll()[0]
	for i, req := range clusterOps {
		req.ID = uint32(i + 2)
		r := exchange(t, nc, &req)
		if r.Status != wire.StatusBadRequest || string(r.Value) != "not a cluster member" {
			t.Errorf("%v: %v %q, want BAD_REQUEST \"not a cluster member\"", req.Op, r.Status, r.Value)
		}
	}
	after := srv.StatsAll()[0]
	if after.Groups != before.Groups || after.WalAppends != before.WalAppends || after.Keys != 1 {
		t.Errorf("refused ops executed: groups %d -> %d, appends %d -> %d, keys %d",
			before.Groups, after.Groups, before.WalAppends, after.WalAppends, after.Keys)
	}
	if r := exchange(t, nc, &wire.Request{Op: wire.OpGet, ID: 9, Key: 7}); r.Status != wire.StatusOK || string(r.Value) != "kept" {
		t.Errorf("get after the refusals: %v %q", r.Status, r.Value)
	}
}

// goroutinesIn counts the goroutines whose stack shows every one of frames.
func goroutinesIn(frames ...string) (n int) {
	buf := make([]byte, 1<<20)
next:
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, f := range frames {
			if !strings.Contains(g, f) {
				continue next
			}
		}
		n++
	}
	return n
}

// TestDrainAnswersMapWatch: a SHARDMAP_WATCH parked in its long-poll holds
// its connection's drain registration, and the drain answers it SHUTDOWN at
// once instead of waiting out the poll.
func TestDrainAnswersMapWatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	m, err := cluster.NewMember(cluster.Config{Seed: true, Advertise: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Shards: 1, WorkersPerShard: 1, Durability: server.DurabilityGroup, DataDir: t.TempDir(),
		SnapshotEvery: time.Hour, Cluster: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if err := wire.WriteRequest(nc, &wire.Request{Op: wire.OpShardMapGet, ID: 1}); err != nil {
		t.Fatal(err)
	}
	mp, err := wire.ReadResponse(nc)
	if err != nil || mp.Status != wire.StatusOK {
		t.Fatalf("map get: %v %v", mp, err)
	}
	if err := wire.WriteRequest(nc, &wire.Request{Op: wire.OpShardMapWatch, ID: 2, Key: mp.Map.Epoch}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); goroutinesIn("HandleMapOp(", "(*Service).Wait(") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watch never parked")
		}
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a watch parked: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if r, err := wire.ReadResponse(nc); err != nil || r.ID != 2 || r.Status != wire.StatusShutdown {
		t.Fatalf("the parked watch: %v %v, want SHUTDOWN", r, err)
	}
	t.Logf("drained in %v with a watch parked", time.Since(start))
}
