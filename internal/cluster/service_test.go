package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"votm/wire"
)

// TestJoinAssignment: first joiner leads everything, later joiners fill
// follower slots, rejoin is idempotent, epochs advance per change.
func TestJoinAssignment(t *testing.T) {
	svc := NewService(4, 1, t.Logf)
	defer svc.Close()

	id1, m1, err := svc.Join("n1:1")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 1 {
		t.Fatalf("first id = %d", id1)
	}
	for _, r := range m1.Shards {
		if r.Leader != 1 || len(r.Replicas) != 0 {
			t.Fatalf("after first join: %+v", r)
		}
	}
	id2, m2, err := svc.Join("n2:1")
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 2 {
		t.Fatalf("second id = %d", id2)
	}
	for _, r := range m2.Shards {
		if r.Leader != 1 || len(r.Replicas) != 1 || r.Replicas[0] != 2 {
			t.Fatalf("after second join: %+v", r)
		}
		if r.Epoch != m2.Epoch {
			t.Fatalf("route epoch %d, map epoch %d", r.Epoch, m2.Epoch)
		}
	}
	if m2.Epoch <= m1.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", m1.Epoch, m2.Epoch)
	}
	// Third joiner finds every follower slot taken (replicas=1): no routes
	// change, but it is registered.
	id3, m3, err := svc.Join("n3:1")
	if err != nil {
		t.Fatal(err)
	}
	if id3 != 3 || m3.Node(3) == nil {
		t.Fatalf("third join: id=%d", id3)
	}
	// Idempotent rejoin.
	again, m4, err := svc.Join("n2:1")
	if err != nil {
		t.Fatal(err)
	}
	if again != 2 || m4.Epoch != m3.Epoch {
		t.Fatalf("rejoin: id=%d epoch=%d (want 2, %d)", again, m4.Epoch, m3.Epoch)
	}
}

// TestReassignLeader: leadership moves, the old leader becomes a follower,
// and the route epoch records the change.
func TestReassignLeader(t *testing.T) {
	svc := NewService(2, 1, t.Logf)
	defer svc.Close()
	svc.Join("n1:1")
	svc.Join("n2:1")

	m, err := svc.ReassignLeader(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cur := svc.Snapshot(); !reflect.DeepEqual(m, cur) {
		t.Fatalf("reassign returned %+v, the service holds %+v", m, cur)
	}
	r := m.Route(0)
	if r.Leader != 2 || len(r.Replicas) != 1 || r.Replicas[0] != 1 {
		t.Fatalf("after reassign: %+v", r)
	}
	if r.Epoch != m.Epoch {
		t.Fatalf("epochs: route %d, map %d", r.Epoch, m.Epoch)
	}
	// Shard 1 is untouched.
	if m.Route(1).Leader != 1 {
		t.Fatalf("shard 1 moved: %+v", m.Route(1))
	}
	// Idempotent.
	if m2, err := svc.ReassignLeader(0, 2); err != nil || m2.Epoch != m.Epoch {
		t.Fatalf("re-reassign: %+v %v", m2, err)
	}
	// Unknown node and shard fail typed.
	if _, err := svc.ReassignLeader(0, 9); err == nil {
		t.Fatal("reassign to unknown node succeeded")
	}
	if _, err := svc.ReassignLeader(9, 2); err == nil {
		t.Fatal("reassign of unknown shard succeeded")
	}
}

// TestMarkDead: a dead leader's shards promote their first follower; a
// dead follower just leaves the replica sets.
func TestMarkDead(t *testing.T) {
	svc := NewService(2, 1, t.Logf)
	defer svc.Close()
	svc.Join("n1:1")
	svc.Join("n2:1")

	svc.MarkDead(1)
	m := svc.Snapshot()
	if m.Node(1) != nil {
		t.Fatal("dead node still mapped")
	}
	for _, r := range m.Shards {
		if r.Leader != 2 || len(r.Replicas) != 0 {
			t.Fatalf("after leader death: %+v", r)
		}
		if r.Epoch != m.Epoch {
			t.Fatalf("route epoch %d, map epoch %d", r.Epoch, m.Epoch)
		}
	}
	// Killing the last node leaves shards unled.
	svc.MarkDead(2)
	m = svc.Snapshot()
	for _, r := range m.Shards {
		if r.Leader != 0 {
			t.Fatalf("unled shard has leader %d", r.Leader)
		}
	}
}

// TestWait: a watcher wakes on the next epoch bump and times out to the
// current map otherwise.
func TestWait(t *testing.T) {
	svc := NewService(1, 0, t.Logf)
	defer svc.Close()

	start := svc.Epoch()
	done := make(chan wire.ShardMap, 1)
	go func() {
		m, err := svc.Wait(context.Background(), start)
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		done <- m
	}()
	time.Sleep(10 * time.Millisecond)
	svc.Join("n1:1")
	select {
	case m := <-done:
		if m.Epoch <= start {
			t.Fatalf("woke with epoch %d <= %d", m.Epoch, start)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never woke")
	}

	// Bounded poll: expired context returns the current map.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	m, err := svc.Wait(ctx, svc.Epoch())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired wait: %v", err)
	}
	if m.Epoch != svc.Epoch() {
		t.Fatalf("expired wait map epoch %d", m.Epoch)
	}

	// Close fails pending waits.
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Wait(context.Background(), svc.Epoch())
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	svc.Close()
	if err := <-errCh; !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("wait after close: %v", err)
	}
}

// TestServeWire: the standalone server answers GET/JOIN/UPDATE/WATCH over
// real wire frames.
func TestServeWire(t *testing.T) {
	svc := NewService(2, 1, t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ln, svc) }()
	defer func() {
		svc.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	do := func(req *wire.Request) *wire.Response {
		t.Helper()
		if err := wire.WriteRequest(c, req); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(c)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := do(&wire.Request{Op: wire.OpPing, ID: 1}); resp.Status != wire.StatusOK {
		t.Fatalf("ping: %v", resp.Status)
	}
	j1 := do(&wire.Request{Op: wire.OpShardMapJoin, ID: 2, Value: []byte("127.0.0.1:9001")})
	if j1.Status != wire.StatusOK || j1.Cursor != 1 {
		t.Fatalf("join 1: %v id=%d", j1.Status, j1.Cursor)
	}
	j2 := do(&wire.Request{Op: wire.OpShardMapJoin, ID: 3, Value: []byte("127.0.0.1:9002")})
	if j2.Status != wire.StatusOK || j2.Cursor != 2 {
		t.Fatalf("join 2: %v id=%d", j2.Status, j2.Cursor)
	}
	get := do(&wire.Request{Op: wire.OpShardMapGet, ID: 4})
	if get.Status != wire.StatusOK || len(get.Map.Nodes) != 2 || get.Map.Route(0).Leader != 1 {
		t.Fatalf("get: %+v", get.Map)
	}
	upd := do(&wire.Request{Op: wire.OpShardMapUpdate, ID: 5, Shard: 1, Key: 2})
	if upd.Status != wire.StatusOK || upd.Map.Route(1).Leader != 2 {
		t.Fatalf("update: %v %+v", upd.Status, upd.Map)
	}
	// Watch from the pre-update epoch answers immediately with the newer map.
	w := do(&wire.Request{Op: wire.OpShardMapWatch, ID: 6, Key: get.Map.Epoch})
	if w.Status != wire.StatusOK || w.Map.Epoch <= get.Map.Epoch {
		t.Fatalf("watch: %v epoch=%d (want > %d)", w.Status, w.Map.Epoch, get.Map.Epoch)
	}
	// Join with an empty address fails typed.
	bad := do(&wire.Request{Op: wire.OpShardMapJoin, ID: 7})
	if bad.Status != wire.StatusBadRequest {
		t.Fatalf("empty join: %v", bad.Status)
	}
}

// TestHealthPromotion: a node that stops answering pings is marked dead and
// its shards promote.
func TestHealthPromotion(t *testing.T) {
	svc := NewService(1, 1, t.Logf)
	defer svc.Close()

	// Node 1: a live TCP ping responder. Node 2: joins, then "dies" (its
	// address never listens).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					req, err := wire.ReadRequest(c)
					if err != nil {
						return
					}
					_ = wire.WriteResponse(c, &wire.Response{Op: req.Op, ID: req.ID})
				}
			}()
		}
	}()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here anymore

	if _, _, err := svc.Join(deadAddr); err != nil { // node 1 leads
		t.Fatal(err)
	}
	if _, _, err := svc.Join(ln.Addr().String()); err != nil { // node 2 follows
		t.Fatal(err)
	}
	svc.StartHealth(20*time.Millisecond, 2, 100*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := svc.Snapshot()
		if m.Node(1) == nil && m.Route(0).Leader == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
