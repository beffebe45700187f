package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// TestClusterRequestRoundTrip: the v5 control-plane and node-to-node
// request frames survive encode/decode.
func TestClusterRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpShardMapGet, ID: 1},
		{Op: OpShardMapWatch, ID: 2, Key: 17},
		{Op: OpShardMapWatch, ID: 3, Key: 0},
		{Op: OpShardMapJoin, ID: 4, Value: []byte("127.0.0.1:7421")},
		{Op: OpShardMapUpdate, ID: 5, Shard: 3, Key: 2},
		{Op: OpReplicate, ID: 6, Shard: 1, Key: 0},
		{Op: OpReplicate, ID: 7, Shard: 2, Key: 99, Value: []byte("raw-wal-frames")},
		{Op: OpHandoff, ID: 8, Shard: 4, Phase: HandoffBegin, Key: 41},
		{Op: OpHandoff, ID: 9, Shard: 4, Phase: HandoffEntries, Value: []byte("packed-entries")},
		{Op: OpHandoff, ID: 10, Shard: 4, Phase: HandoffCommit, Key: 12},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if len(req.Value) == 0 {
			req.Value, got.Value = nil, nil
		}
		if !reflect.DeepEqual(req, got) {
			t.Errorf("%v: round trip\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
}

// TestClusterResponseRoundTrip: shard maps, replication cursors and the
// WRONG_SHARD redirect survive encode/decode.
func TestClusterResponseRoundTrip(t *testing.T) {
	m := ShardMap{
		Epoch: 9,
		Nodes: []NodeInfo{
			{ID: 1, Addr: "127.0.0.1:7421"},
			{ID: 2, Addr: "127.0.0.1:7422"},
		},
		Shards: []ShardRoute{
			{Shard: 0, Epoch: 3, Leader: 1, Replicas: []uint32{2}},
			{Shard: 1, Epoch: 9, Leader: 2},
		},
	}
	resps := []*Response{
		{Op: OpShardMapGet, ID: 1, Map: m},
		{Op: OpShardMapWatch, ID: 2, Map: m},
		{Op: OpShardMapUpdate, ID: 3, Map: m},
		{Op: OpShardMapJoin, ID: 4, Cursor: 2, Map: m},
		{Op: OpShardMapGet, ID: 5, Map: ShardMap{Epoch: 1}},
		{Op: OpReplicate, ID: 6, Cursor: 100},
		{Op: OpHandoff, ID: 7, Cursor: 42},
		{Op: OpGet, ID: 8, Status: StatusWrongShard, Value: WrongShardDetail(nil, 7)},
	}
	for _, resp := range resps {
		got := roundTripResponse(t, resp)
		if len(resp.Value) == 0 {
			resp.Value, got.Value = nil, nil
		}
		if !reflect.DeepEqual(resp, got) {
			t.Errorf("%v: round trip\n got %+v\nwant %+v", resp.Op, got, resp)
		}
	}
}

// TestWrongShardError: the typed sentinel matches and the detail bytes
// carry the redirecting node's map epoch.
func TestWrongShardError(t *testing.T) {
	err := StatusWrongShard.Err(WrongShardDetail(nil, 31))
	if !errors.Is(err, ErrWrongShard) {
		t.Fatalf("WRONG_SHARD error does not match ErrWrongShard: %v", err)
	}
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("not a *Error: %v", err)
	}
	if got := WrongShardEpoch(we.Detail); got != 31 {
		t.Errorf("WrongShardEpoch = %d, want 31", got)
	}
	if got := WrongShardEpoch(nil); got != 0 {
		t.Errorf("WrongShardEpoch(nil) = %d, want 0", got)
	}
	if got := WrongShardEpoch([]byte{1, 2}); got != 0 {
		t.Errorf("WrongShardEpoch(short) = %d, want 0", got)
	}
}

// TestHandoffPhaseValidation: an out-of-range phase is rejected by both the
// encoder and the parser.
func TestHandoffPhaseValidation(t *testing.T) {
	if _, err := AppendRequest(nil, &Request{Op: OpHandoff, ID: 1, Phase: HandoffCommit + 1}); !errors.Is(err, ErrProtocol) {
		t.Errorf("encode phase %d: got %v, want ErrProtocol", HandoffCommit+1, err)
	}
	frame, err := AppendRequest(nil, &Request{Op: OpHandoff, ID: 2, Shard: 1, Phase: HandoffBegin})
	if err != nil {
		t.Fatal(err)
	}
	// Layout: len u32 | ver | op | id u32 | shard u32 | phase u8 | ...
	frame[14] = byte(HandoffCommit) + 1
	if _, err := ParseRequest(frame[4:]); !errors.Is(err, ErrProtocol) {
		t.Errorf("parse phase %d: got %v, want ErrProtocol", HandoffCommit+1, err)
	}
}

// TestShardMapBounds: maps beyond the node/shard/replica bounds are
// rejected by both the encoder and the parser, and truncated map frames
// fail typed at every cut point.
func TestShardMapBounds(t *testing.T) {
	over := ShardMap{Epoch: 1, Nodes: make([]NodeInfo, MaxMapNodes+1)}
	if _, err := AppendResponse(nil, &Response{Op: OpShardMapGet, ID: 1, Map: over}); !errors.Is(err, ErrProtocol) {
		t.Errorf("encode %d nodes: got %v, want ErrProtocol", MaxMapNodes+1, err)
	}
	overShards := ShardMap{Epoch: 1, Shards: make([]ShardRoute, MaxMapShards+1)}
	if _, err := AppendResponse(nil, &Response{Op: OpShardMapGet, ID: 2, Map: overShards}); !errors.Is(err, ErrProtocol) {
		t.Errorf("encode %d shards: got %v, want ErrProtocol", MaxMapShards+1, err)
	}
	overReplicas := ShardMap{Epoch: 1, Shards: []ShardRoute{{Replicas: make([]uint32, MaxShardReplicas+1)}}}
	if _, err := AppendResponse(nil, &Response{Op: OpShardMapGet, ID: 3, Map: overReplicas}); !errors.Is(err, ErrProtocol) {
		t.Errorf("encode %d replicas: got %v, want ErrProtocol", MaxShardReplicas+1, err)
	}

	frame, err := AppendResponse(nil, &Response{Op: OpShardMapGet, ID: 4, Map: ShardMap{
		Epoch:  2,
		Nodes:  []NodeInfo{{ID: 1, Addr: "127.0.0.1:7421"}},
		Shards: []ShardRoute{{Shard: 0, Epoch: 2, Leader: 1, Replicas: []uint32{2, 3}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Patch the node count beyond the bound.
	// Layout: len u32 | ver | op|0x80 | id u32 | status | epoch u64 | nnodes u16 | ...
	patched := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint16(patched[19:], MaxMapNodes+1)
	if _, err := ParseResponse(patched[4:]); !errors.Is(err, ErrProtocol) {
		t.Errorf("parse %d nodes: got %v, want ErrProtocol", MaxMapNodes+1, err)
	}
	for cut := 1; cut < len(frame)-4; cut++ {
		short := append([]byte(nil), frame[:len(frame)-cut]...)
		binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
		if _, err := ParseResponse(short[4:]); err == nil {
			t.Fatalf("truncated shard map (cut %d bytes) parsed", cut)
		}
	}
}

// TestShardMapLookups: Node and Route resolve by id, including when the
// shard list is not a dense 0..n-1 identity mapping.
func TestShardMapLookups(t *testing.T) {
	m := ShardMap{
		Epoch: 4,
		Nodes: []NodeInfo{{ID: 3, Addr: "a"}, {ID: 1, Addr: "b"}},
		Shards: []ShardRoute{
			{Shard: 5, Epoch: 1, Leader: 3},
			{Shard: 0, Epoch: 4, Leader: 1},
		},
	}
	if n := m.Node(1); n == nil || n.Addr != "b" {
		t.Errorf("Node(1) = %+v", n)
	}
	if n := m.Node(9); n != nil {
		t.Errorf("Node(9) = %+v, want nil", n)
	}
	if r := m.Route(5); r == nil || r.Leader != 3 {
		t.Errorf("Route(5) = %+v", r)
	}
	if r := m.Route(0); r == nil || r.Leader != 1 {
		t.Errorf("Route(0) = %+v", r)
	}
	if r := m.Route(7); r != nil {
		t.Errorf("Route(7) = %+v, want nil", r)
	}
}
