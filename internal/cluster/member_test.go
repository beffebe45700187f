package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"votm/client"
	"votm/internal/wal"
	"votm/wire"
)

// TestNonSeedRefusesMapOps: only the node hosting the map answers the
// SHARDMAP_* opcodes; a joined member refuses each of them, typed, while the
// seed serves the same requests.
func TestNonSeedRefusesMapOps(t *testing.T) {
	_, _, addrA := startClusterNode(t, t.TempDir(), "", 1)
	_, _, addrB := startClusterNode(t, t.TempDir(), addrA, 1)
	reqs := []wire.Request{
		{Op: wire.OpShardMapGet},
		{Op: wire.OpShardMapWatch}, // epoch 0: the seed answers at once
		{Op: wire.OpShardMapJoin, Value: []byte(addrB)},
		{Op: wire.OpShardMapUpdate, Shard: 0, Key: 1},
	}
	for _, node := range []struct {
		addr   string
		status wire.Status
		detail string
	}{{addrB, wire.StatusBadRequest, "not the shard-map seed"}, {addrA, wire.StatusOK, ""}} {
		nc, err := net.Dial("tcp", node.addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		for i, req := range reqs {
			req.ID = uint32(i + 1)
			if err := wire.WriteRequest(nc, &req); err != nil {
				t.Fatal(err)
			}
			r, err := wire.ReadResponse(nc)
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != node.status || node.detail != "" && string(r.Value) != node.detail {
				t.Errorf("%s: %v answered %v %q, want %v %q", node.addr, req.Op, r.Status, r.Value, node.status, node.detail)
			}
		}
		_ = nc.Close()
	}
}

// TestMemberRestartsOnUndecidedPrepare: a node restarting on logs that end in
// a cross-shard prepare with no decision appends the decision during
// server.New, before the plane has started — the WAL tee must pass it by
// (there are no followers yet) rather than reach shard state that does not
// exist, and the round must come back committed.
func TestMemberRestartsOnUndecidedPrepare(t *testing.T) {
	const xid = 0xfeed0002
	dir := t.TempDir()
	var keys [clusterSoakShards]uint64
	var parts []wal.Participant
	for s := range keys {
		keys[s] = soakKeyOnShard(s, 100)
		parts = append(parts, wal.Participant{Shard: uint32(s), Seq: 1})
	}
	for s := range keys {
		log, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%04d", s)), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Start(1); err != nil {
			t.Fatal(err)
		}
		seq, _, err := log.Append([]wal.Record{{Kind: wal.RecPrepare, Key: xid,
			Value: wal.AppendPrepareValue(nil, parts, []wal.Record{{Kind: wal.RecPut, Key: keys[s], Value: []byte{byte('a' + s)}}})}})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Sync(seq); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}

	_, _, addr := startClusterNode(t, dir, "", 1)
	cl, err := client.DialCluster(addr, client.Options{PoolSize: 1, BusyRetries: 12, BusyBackoff: time.Millisecond, MapRetries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for s, k := range keys {
		v, err := cl.Get(ctx, k)
		if err != nil || !bytes.Equal(v, []byte{byte('a' + s)}) {
			t.Errorf("shard %d key %d = %q, %v after restart; want the prepared round committed", s, k, v, err)
		}
	}
}
