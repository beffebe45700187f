package server

import (
	"context"
	"testing"
	"time"

	"votm/internal/wal"
)

// TestRedoApplierHoldsSuffix drives the one redo state machine directly:
// from a prepare to its decision nothing reaches memory, a commit applies
// the prepare and then the held suffix (replay order = memory order: the
// suffix's value wins), an abort voids the suffix with the prepare, and a
// decision with nothing held is ignored.
func TestRedoApplierHoldsSuffix(t *testing.T) {
	f := newRoundFixture(t, Config{ShardWords: 1 << 12, WorkersPerShard: 1}, 2)
	ctx, th, sh := context.Background(), f.th, f.shards[0]
	a, b := f.keys[0][0], f.keys[0][1]
	put := func(key uint64, val string) wal.Record {
		return wal.Record{Kind: wal.RecPut, Key: key, Value: []byte(val)}
	}
	prepare := func(xid uint64, recs ...wal.Record) wal.Record {
		return wal.Record{Kind: wal.RecPrepare, Key: xid,
			Value: wal.AppendPrepareValue(nil, []wal.Participant{{Shard: 0, Seq: 2}, {Shard: 1, Seq: 2}}, recs)}
	}
	want := func(step string, key uint64, val string) {
		t.Helper()
		got, found, err := sh.testGet(ctx, th, key)
		if err != nil || found != (val != "") || string(got) != val {
			t.Fatalf("%s: key %d = %q (found %v, %v), want %q", step, key, got, found, err, val)
		}
	}
	redo := &redoApplier{sh: sh}
	feed := func(seq uint64, recs ...wal.Record) {
		t.Helper()
		if err := redo.apply(ctx, th, seq, recs); err != nil {
			t.Fatalf("apply seq %d: %v", seq, err)
		}
	}

	feed(1, put(a, "base"), wal.Record{Kind: wal.RecCommit, Key: 99}) // its prepare lies behind the snapshot
	feed(2, prepare(7, put(a, "round"), put(b, "round")))
	feed(3, put(a, "group"), wal.Record{Kind: wal.RecDelete, Key: b})
	want("held", a, "base")
	want("held", b, "")
	if redo.xid != 7 || redo.from != 2 || len(redo.held) != 4 {
		t.Fatalf("holding xid %d from seq %d, %d records; want 7, 2, 4", redo.xid, redo.from, len(redo.held))
	}
	feed(4, wal.Record{Kind: wal.RecCommit, Key: 7}, put(b, "after")) // the annotation rides in front of a batch
	want("committed", a, "group")
	want("committed", b, "after")
	if redo.xid != 0 || redo.n != 6 {
		t.Fatalf("after the commit: holding %d, %d records applied; want 0, 6", redo.xid, redo.n)
	}

	feed(5, prepare(8, put(a, "aborted round")))
	feed(6, put(a, "on top of it"))
	feed(7, wal.Record{Kind: wal.RecAbort, Key: 8})
	want("aborted", a, "group")
	if redo.xid != 0 || redo.n != 6 {
		t.Fatalf("after the abort: holding %d, %d records applied; want 0, 6", redo.xid, redo.n)
	}
}

// TestPromotionCommitsHeldSuffix: a follower promoted while it still holds a
// prepare — the leader died before the annotation streamed — applies what it
// holds and annotates its own log, so the log it now leads is self-contained.
func TestPromotionCommitsHeldSuffix(t *testing.T) {
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}, 1)
	cn := newClusterNode(f.s)
	ctx, sh, key := context.Background(), f.shards[0], f.keys[0][0]
	// What REPLICATE leaves behind: the frames in the log, their records held.
	for _, recs := range [][]wal.Record{
		{{Kind: wal.RecPrepare, Key: 7, Value: wal.AppendPrepareValue(nil, []wal.Participant{{Shard: 0, Seq: 1}, {Shard: 9, Seq: 1}},
			[]wal.Record{{Kind: wal.RecPut, Key: key, Value: []byte("round")}})}},
		{{Kind: wal.RecPut, Key: key, Value: []byte("acked group")}},
	} {
		seq, err := appendWAL(sh, recs)
		if err == nil {
			err = cn.states[0].redo.apply(ctx, f.th, seq, recs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, found, _ := sh.testGet(ctx, f.th, key); found {
		t.Fatal("a held record reached memory")
	}
	cn.commitHeld(0)
	if val, _, _ := sh.testGet(ctx, f.th, key); string(val) != "acked group" {
		t.Fatalf("after promotion: key = %q, want the held suffix applied", val)
	}
	// Shard 9 does not exist: only the annotation can make this replay commit.
	re := f.bootCopy(t, nil)
	if val, _, _ := re.shards[0].testGet(ctx, re.th, key); string(val) != "acked group" {
		t.Errorf("crash image of the promoted log: key = %q", val)
	}
	if n := re.s.Recovery()[0].ResolvedPrepares; n != 0 {
		t.Errorf("the promoted log left %d prepares to resolve", n)
	}
}
