package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatalf("write %v: %v", req.Op, err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatalf("read %v: %v", req.Op, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%v: %d bytes left after read", req.Op, buf.Len())
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing, ID: 1},
		{Op: OpGet, ID: 2, Key: 0xdeadbeef},
		{Op: OpPut, ID: 3, Key: 7, Value: []byte("hello")},
		{Op: OpPut, ID: 4, Key: 8, Value: []byte{}},
		{Op: OpDelete, ID: 5, Key: ^uint64(0)},
		{Op: OpCAS, ID: 6, Key: 9, OldValue: []byte("old"), Value: []byte("new")},
		{Op: OpAtomic, ID: 7, Subs: []Sub{
			{Kind: SubGet, Key: 1},
			{Kind: SubPut, Key: 2, Value: []byte("v")},
			{Kind: SubDelete, Key: 3},
			{Kind: SubAdd, Key: 4, Delta: 42},
		}},
		// Multi-shard ATOMIC: keys spread across the whole hash space. The
		// frame layout is identical to the single-shard case — shard
		// placement is a server concern — but since protocol v3 such batches
		// are served rather than rejected, so they must round-trip cleanly.
		{Op: OpAtomic, ID: 10, Subs: []Sub{
			{Kind: SubPut, Key: 0, Value: []byte("shard-a")},
			{Kind: SubPut, Key: ^uint64(0), Value: []byte("shard-b")},
			{Kind: SubAdd, Key: 0x8000_0000_0000_0000, Delta: ^uint64(6)},
			{Kind: SubGet, Key: 0x1234_5678_9abc_def0},
			{Kind: SubDelete, Key: 0xcafe_babe},
		}},
		{Op: OpStats, ID: 8, Shard: AllShards},
		{Op: OpStats, ID: 9, Shard: 3},
		// SCAN (v4): first page, continuation page, and the degenerate
		// shapes the framing layer deliberately lets through — limit 0,
		// empty and reversed ranges, a cursor past the end — which the
		// server answers with BAD_REQUEST instead of dropping the stream.
		{Op: OpScan, ID: 11, Key: 100, End: 200, Limit: 64},
		{Op: OpScan, ID: 12, Key: 100, End: 200, Limit: MaxScanKeys, Cursor: 150, HasCursor: true},
		{Op: OpScan, ID: 13, Key: 0, End: ^uint64(0), Limit: 1},
		{Op: OpScan, ID: 14, Key: 5, End: 9, Limit: 0},
		{Op: OpScan, ID: 15, Key: 7, End: 7, Limit: 8},
		{Op: OpScan, ID: 16, Key: 9, End: 5, Limit: 8},
		{Op: OpScan, ID: 17, Key: 5, End: 9, Limit: 8, Cursor: 1000, HasCursor: true},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		// Empty slices decode as nil; normalize before comparing.
		if len(req.Value) == 0 {
			req.Value, got.Value = nil, nil
		}
		if !reflect.DeepEqual(req, got) {
			t.Errorf("%v: round trip\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
}

func roundTripResponse(t *testing.T, resp *Response) *Response {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatalf("write %v: %v", resp.Op, err)
	}
	got, err := ReadResponse(&buf)
	if err != nil {
		t.Fatalf("read %v: %v", resp.Op, err)
	}
	return got
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{Op: OpPing, ID: 1},
		{Op: OpGet, ID: 2, Value: []byte("payload")},
		{Op: OpGet, ID: 3, Status: StatusNotFound, Value: []byte("detail")},
		{Op: OpPut, ID: 4, Created: true},
		{Op: OpPut, ID: 5, Created: false},
		{Op: OpDelete, ID: 6},
		{Op: OpCAS, ID: 7, Status: StatusCASMismatch, Value: []byte("current")},
		{Op: OpAtomic, ID: 8, Subs: []SubResult{
			{Kind: SubGet, Status: StatusOK, Value: []byte("x")},
			{Kind: SubGet, Status: StatusNotFound},
			{Kind: SubPut, Status: StatusOK},
			{Kind: SubAdd, Status: StatusOK, Sum: 99},
		}},
		{Op: OpAtomic, ID: 9, Status: StatusBusy},
		{Op: OpStats, ID: 10, Stats: []ShardStats{{
			Shard: 0, Engine: "norec", Quota: 4, SettledQuota: 2,
			QuotaMoves: 5, Commits: 100, Aborts: 10, Escalations: 1,
			Panics: 2, SuccessNs: 12345, AbortNs: 678, Delta: 0.25,
			Keys: 50, QuotaEvents: 5, Repartitions: 3,
		}}},
		{Op: OpStats, ID: 11, Stats: []ShardStats{{
			Shard: 1, Engine: "tl2", Quota: 8, SettledQuota: 8,
			Commits: 7, Delta: 0.5, Keys: 3,
			Groups: 4, GroupOps: 64, QueueHighWater: 16,
			WalAppends: 4, WalBytes: 4096, Fsyncs: 3,
			SnapshotAgeSec: 17, ReplayedRecords: 1000,
		}}},
		{Op: OpStats, ID: 12, Stats: []ShardStats{{
			Engine: "norec", SnapshotAgeSec: SnapshotNever,
		}}},
		// v3 STATS: the cross-shard 2PC meters must survive the round trip.
		{Op: OpStats, ID: 13, Stats: []ShardStats{{
			Shard: 2, Engine: "norec", Quota: 2, Commits: 11,
			WalAppends: 5, Fsyncs: 2,
			CrossShardGroups: 3, CrossShardPrepares: 6, PrepareAborts: 1,
		}}},
		// v6 STATS: the batching meters must survive the round trip.
		{Op: OpStats, ID: 20, Stats: []ShardStats{{
			Shard: 3, Engine: "oreceager", Quota: 4, Commits: 21,
			Groups: 2, GroupOps: 18, QueueHighWater: 40,
			FollowerAcks: 8, ReplicaLagRecords: 1, Handoffs: 2,
			EffectiveBatch: 8, AdmissionRejects: 17,
			RingFullEvents: 3, QueueHighWaterWin: 12,
		}}},
		// A cross-shard batch that lost the routing race against a live
		// repartition: BUSY with the server's detail, no sub results.
		{Op: OpAtomic, ID: 14, Status: StatusBusy,
			Value: []byte("server: batch keys moved by a concurrent repartition")},
		// SCAN pages (v4): a final page, a continuation page with a cursor,
		// an empty page, and the typed rejections a server answers for
		// semantically invalid ranges.
		{Op: OpScan, ID: 15, Entries: []ScanEntry{
			{Key: 1, Value: []byte("a")},
			{Key: 2, Value: []byte{}},
			{Key: 9, Value: []byte("long-ish value bytes")},
		}},
		{Op: OpScan, ID: 16, Entries: []ScanEntry{{Key: 5, Value: []byte("x")}},
			More: true, Cursor: 6},
		{Op: OpScan, ID: 17},
		{Op: OpScan, ID: 18, Status: StatusBadRequest, Value: []byte("scan limit must be positive")},
		{Op: OpScan, ID: 19, Status: StatusBusy},
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

func TestStatsNaNDelta(t *testing.T) {
	resp := roundTripResponse(t, &Response{
		Op: OpStats, ID: 1,
		Stats: []ShardStats{{Engine: "tl2", Delta: math.NaN()}},
	})
	if !math.IsNaN(resp.Stats[0].Delta) {
		t.Errorf("NaN delta decoded as %v", resp.Stats[0].Delta)
	}
}

// TestVersionRange: exactly version 6 is accepted. Every other version
// byte — the retired 1-5, zero, and a future 7 — is a protocol violation for
// both parsers, whatever the opcode.
func TestVersionRange(t *testing.T) {
	reqFrame, err := AppendRequest(nil, &Request{Op: OpGet, ID: 1, Key: 2})
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := AppendResponse(nil, &Response{Op: OpStats, ID: 1, Stats: []ShardStats{{Engine: "norec"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{0, 1, 2, 3, 4, 5, 7} {
		reqFrame[4], respFrame[4] = ver, ver // version byte follows the 4-byte length
		if _, err := ParseRequest(reqFrame[4:]); !errors.Is(err, ErrProtocol) {
			t.Errorf("v%d request: got %v, want ErrProtocol", ver, err)
		}
		if _, err := ParseResponse(respFrame[4:]); !errors.Is(err, ErrProtocol) {
			t.Errorf("v%d response: got %v, want ErrProtocol", ver, err)
		}
	}
	reqFrame[4], respFrame[4] = Version, Version
	if _, err := ParseRequest(reqFrame[4:]); err != nil {
		t.Errorf("v%d request: %v", Version, err)
	}
	if _, err := ParseResponse(respFrame[4:]); err != nil {
		t.Errorf("v%d response: %v", Version, err)
	}
}

func TestTypedErrors(t *testing.T) {
	err := StatusBusy.Err(nil)
	if !errors.Is(err, ErrBusy) {
		t.Errorf("StatusBusy error does not match ErrBusy")
	}
	if errors.Is(err, ErrNotFound) {
		t.Errorf("StatusBusy error matches ErrNotFound")
	}
	if StatusOK.Err(nil) != nil {
		t.Errorf("StatusOK produced an error")
	}
	mismatch := StatusCASMismatch.Err([]byte("current"))
	var werr *Error
	if !errors.As(mismatch, &werr) || string(werr.Detail) != "current" {
		t.Errorf("CAS mismatch detail lost: %v", mismatch)
	}
}

func TestFramingViolations(t *testing.T) {
	// Oversized frame header.
	big := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadRequest(bytes.NewReader(big)); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized frame: got %v, want ErrProtocol", err)
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{Op: OpGet, ID: 1, Key: 2}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadRequest(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame parsed")
	}
	// Wrong version byte.
	frame, err := AppendRequest(nil, &Request{Op: OpPing, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = 99 // version byte follows the 4-byte length
	if _, err := ReadRequest(bytes.NewReader(frame)); !errors.Is(err, ErrProtocol) {
		t.Errorf("bad version: got %v, want ErrProtocol", err)
	}
	// Clean EOF between frames.
	if _, err := ReadRequest(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	// Response opcode without the response flag.
	respFrame, err := AppendResponse(nil, &Response{Op: OpPing, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	respFrame[5] &^= 0x80
	if _, err := ReadResponse(bytes.NewReader(respFrame)); !errors.Is(err, ErrProtocol) {
		t.Errorf("unflagged response: got %v, want ErrProtocol", err)
	}
	// A STATS frame cut short of its trailing meters must be rejected, not
	// misread as a shorter layout.
	statsFrame, err := AppendResponse(nil, &Response{
		Op: OpStats, ID: 2,
		Stats: []ShardStats{{Engine: "norec", CrossShardGroups: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	short := statsFrame[:len(statsFrame)-8]
	binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
	if _, err := ReadResponse(bytes.NewReader(short)); !errors.Is(err, ErrProtocol) {
		t.Errorf("short STATS: got %v, want ErrProtocol", err)
	}
}

// TestAtomicBatchLimit: a batch of exactly MaxAtomicOps subs round-trips;
// one more is rejected by both the encoder and the parser, whatever shards
// the keys map to.
func TestAtomicBatchLimit(t *testing.T) {
	subs := make([]Sub, MaxAtomicOps)
	for i := range subs {
		subs[i] = Sub{Kind: SubAdd, Key: uint64(i) * 0x9e3779b97f4a7c15, Delta: 1}
	}
	got := roundTripRequest(t, &Request{Op: OpAtomic, ID: 1, Subs: subs})
	if len(got.Subs) != MaxAtomicOps {
		t.Fatalf("round trip kept %d subs, want %d", len(got.Subs), MaxAtomicOps)
	}

	over := append(subs, Sub{Kind: SubGet, Key: 1})
	if _, err := AppendRequest(nil, &Request{Op: OpAtomic, ID: 2, Subs: over}); !errors.Is(err, ErrProtocol) {
		t.Errorf("encode %d subs: got %v, want ErrProtocol", len(over), err)
	}
	// Hand-craft the oversized count so the parser sees it too: patch the
	// sub count u16 in a legal frame.
	frame, err := AppendRequest(nil, &Request{Op: OpAtomic, ID: 3, Subs: subs[:1]})
	if err != nil {
		t.Fatal(err)
	}
	// Layout: len u32 | ver | op | id u32 | count u16 | subs...
	binary.LittleEndian.PutUint16(frame[10:], MaxAtomicOps+1)
	if _, err := ParseRequest(frame[4:]); !errors.Is(err, ErrProtocol) {
		t.Errorf("parse count=%d: got %v, want ErrProtocol", MaxAtomicOps+1, err)
	}
}

// TestScanLimitBound: a SCAN requesting exactly MaxScanKeys round-trips; a
// larger limit is rejected by both the encoder and the parser, and an
// oversized response page count is rejected too.
func TestScanLimitBound(t *testing.T) {
	got := roundTripRequest(t, &Request{Op: OpScan, ID: 1, Key: 0, End: 10, Limit: MaxScanKeys})
	if got.Limit != MaxScanKeys {
		t.Fatalf("round trip kept limit %d, want %d", got.Limit, MaxScanKeys)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpScan, ID: 2, End: 10, Limit: MaxScanKeys + 1}); !errors.Is(err, ErrProtocol) {
		t.Errorf("encode limit %d: got %v, want ErrProtocol", MaxScanKeys+1, err)
	}
	// Patch the limit in a legal frame so the parser sees the oversize.
	frame, err := AppendRequest(nil, &Request{Op: OpScan, ID: 3, End: 10, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Layout: len u32 | ver | op | id u32 | key u64 | end u64 | cursor u64 | limit u32 | flags u8
	binary.LittleEndian.PutUint32(frame[34:], MaxScanKeys+1)
	if _, err := ParseRequest(frame[4:]); !errors.Is(err, ErrProtocol) {
		t.Errorf("parse limit=%d: got %v, want ErrProtocol", MaxScanKeys+1, err)
	}
	// Response page count beyond the bound.
	respFrame, err := AppendResponse(nil, &Response{Op: OpScan, ID: 4,
		Entries: []ScanEntry{{Key: 1, Value: []byte("v")}}})
	if err != nil {
		t.Fatal(err)
	}
	// Layout: len u32 | ver | op|0x80 | id u32 | status | count u16 | ...
	binary.LittleEndian.PutUint16(respFrame[11:], MaxScanKeys+1)
	if _, err := ParseResponse(respFrame[4:]); !errors.Is(err, ErrProtocol) {
		t.Errorf("parse page count=%d: got %v, want ErrProtocol", MaxScanKeys+1, err)
	}
}

// TestScanTruncation: SCAN frames cut mid-entry or missing the trailing
// cursor fail typed, never panic or misparse.
func TestScanTruncation(t *testing.T) {
	respFrame, err := AppendResponse(nil, &Response{Op: OpScan, ID: 1,
		Entries: []ScanEntry{{Key: 7, Value: []byte("payload")}}, More: true, Cursor: 8})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(respFrame)-4; cut++ {
		short := append([]byte(nil), respFrame[:len(respFrame)-cut]...)
		binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
		if _, err := ParseResponse(short[4:]); err == nil {
			t.Fatalf("truncated SCAN response (cut %d bytes) parsed", cut)
		}
	}
	reqFrame, err := AppendRequest(nil, &Request{Op: OpScan, ID: 2, Key: 1, End: 9, Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(reqFrame)-4; cut++ {
		short := append([]byte(nil), reqFrame[:len(reqFrame)-cut]...)
		binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
		if _, err := ParseRequest(short[4:]); err == nil {
			t.Fatalf("truncated SCAN request (cut %d bytes) parsed", cut)
		}
	}
}

// FuzzParseRequest asserts the request parser never panics and never
// accepts trailing garbage.
func FuzzParseRequest(f *testing.F) {
	seed := []*Request{
		{Op: OpPing, ID: 1},
		{Op: OpPut, ID: 2, Key: 3, Value: []byte("abc")},
		{Op: OpCAS, ID: 3, Key: 4, OldValue: []byte("o"), Value: []byte("n")},
		{Op: OpAtomic, ID: 4, Subs: []Sub{{Kind: SubAdd, Key: 1, Delta: 2}}},
		{Op: OpStats, ID: 5, Shard: AllShards},
		// Multi-shard ATOMIC (served since v3): keys at the extremes of the
		// hash space plus a mixed read/write/counter body.
		{Op: OpAtomic, ID: 6, Subs: []Sub{
			{Kind: SubPut, Key: 0, Value: []byte("lo")},
			{Kind: SubPut, Key: ^uint64(0), Value: []byte("hi")},
			{Kind: SubAdd, Key: 0x8000_0000_0000_0000, Delta: ^uint64(0)},
			{Kind: SubGet, Key: 0x9e3779b97f4a7c15},
			{Kind: SubDelete, Key: 7},
		}},
		// SCAN (v4): a plain page request, a continuation, and the
		// degenerate ranges the server rejects semantically.
		{Op: OpScan, ID: 7, Key: 10, End: 20, Limit: 8},
		{Op: OpScan, ID: 8, Key: 0, End: ^uint64(0), Limit: MaxScanKeys, Cursor: 0x9e37, HasCursor: true},
		{Op: OpScan, ID: 9, Key: 9, End: 5, Limit: 0},
		// Cluster control plane (v5): map fetch/watch/join, a replication
		// batch, and each handoff phase.
		{Op: OpShardMapGet, ID: 10},
		{Op: OpShardMapWatch, ID: 11, Key: 6},
		{Op: OpShardMapJoin, ID: 12, Value: []byte("127.0.0.1:7422")},
		{Op: OpShardMapUpdate, ID: 13, Shard: 2, Key: 3},
		{Op: OpReplicate, ID: 14, Shard: 1, Key: 7, Value: []byte("frames")},
		{Op: OpHandoff, ID: 15, Shard: 3, Phase: HandoffBegin, Key: 40},
		{Op: OpHandoff, ID: 16, Shard: 3, Phase: HandoffEntries, Value: []byte("chunk")},
		{Op: OpHandoff, ID: 17, Shard: 3, Phase: HandoffCommit, Key: 9},
	}
	for _, req := range seed {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // payload without the length prefix
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := ParseRequest(payload)
		if err != nil {
			return
		}
		// Whatever parsed must re-encode and re-parse identically.
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("reencode of parsed request failed: %v", err)
		}
		again, err := ParseRequest(frame[4:])
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("parse/encode not stable:\n%+v\n%+v", req, again)
		}
	})
}

// FuzzParseResponse asserts the response parser never panics, and that
// whatever it accepts re-encodes at the current version and re-parses to the
// same value. Seeds cover the v3 additions: cross-shard STATS meters and
// multi-sub ATOMIC results with per-sub statuses.
func FuzzParseResponse(f *testing.F) {
	seed := []*Response{
		{Op: OpPing, ID: 1},
		{Op: OpGet, ID: 2, Value: []byte("payload")},
		{Op: OpAtomic, ID: 3, Subs: []SubResult{
			{Kind: SubGet, Status: StatusOK, Value: []byte("x")},
			{Kind: SubGet, Status: StatusNotFound},
			{Kind: SubAdd, Status: StatusOK, Sum: ^uint64(8)},
		}},
		{Op: OpAtomic, ID: 4, Status: StatusBusy,
			Value: []byte("server: batch keys moved by a concurrent repartition")},
		{Op: OpStats, ID: 5, Stats: []ShardStats{{
			Shard: 1, Engine: "norec", Quota: 4, Commits: 10, Delta: 0.5,
			WalAppends: 3, WalBytes: 300, Fsyncs: 2,
			SnapshotAgeSec: SnapshotNever, ReplayedRecords: 7,
			CrossShardGroups: 2, CrossShardPrepares: 4, PrepareAborts: 1,
		}}},
		{Op: OpError, ID: 0, Status: StatusBadRequest, Value: []byte("bad")},
		// SCAN pages (v4): entries + continuation cursor, and a typed range
		// rejection.
		{Op: OpScan, ID: 6, Entries: []ScanEntry{
			{Key: 1, Value: []byte("a")},
			{Key: 2, Value: []byte("bb")},
		}, More: true, Cursor: 3},
		{Op: OpScan, ID: 7, Status: StatusBadRequest, Value: []byte("reversed scan bounds")},
		// Cluster (v5): a shard map with replicas, a replication cursor,
		// and the epoch-stamped WRONG_SHARD redirect.
		{Op: OpShardMapGet, ID: 8, Map: ShardMap{
			Epoch:  5,
			Nodes:  []NodeInfo{{ID: 1, Addr: "127.0.0.1:7421"}, {ID: 2, Addr: "127.0.0.1:7422"}},
			Shards: []ShardRoute{{Shard: 0, Epoch: 5, Leader: 1, Replicas: []uint32{2}}},
		}},
		{Op: OpShardMapJoin, ID: 9, Cursor: 2, Map: ShardMap{Epoch: 2, Nodes: []NodeInfo{{ID: 1, Addr: "a"}}}},
		{Op: OpReplicate, ID: 10, Cursor: 33},
		{Op: OpPut, ID: 11, Status: StatusWrongShard, Value: WrongShardDetail(nil, 6)},
	}
	for _, resp := range seed {
		frame, err := AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // payload without the length prefix
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := ParseResponse(payload)
		if err != nil {
			return
		}
		frame, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("reencode of parsed response failed: %v", err)
		}
		again, err := ParseResponse(frame[4:])
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if !respEqual(resp, again) {
			t.Fatalf("parse/encode not stable:\n%+v\n%+v", resp, again)
		}
	})
}

// respEqual compares responses treating NaN deltas as equal to themselves
// (reflect.DeepEqual would reject NaN == NaN) and nil/empty byte slices as
// interchangeable.
func respEqual(a, b *Response) bool {
	if len(a.Stats) != len(b.Stats) {
		return false
	}
	for i := range a.Stats {
		da, db := a.Stats[i].Delta, b.Stats[i].Delta
		if math.IsNaN(da) != math.IsNaN(db) {
			return false
		}
		if math.IsNaN(da) {
			a.Stats[i].Delta, b.Stats[i].Delta = 0, 0
		}
	}
	if len(a.Value) == 0 && len(b.Value) == 0 {
		a.Value, b.Value = nil, nil
	}
	return reflect.DeepEqual(a, b)
}
