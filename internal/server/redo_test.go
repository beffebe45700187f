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

// TestRedoApplierNestedHold feeds the log overlapped rounds leave: P_k, a
// group, P_k+1 (it lists k's participants), a group — the second prepare
// inside the first one's held suffix. Committing k applies its records and the
// suffix up to P_k+1 and starts a second hold at P_k+1's OWN batch (what a
// follower's capture claims), not at the decision's; aborting k+1 then drops
// the rest. RecCommit is a watermark: C_k+1 alone, k's annotation overwritten
// before a batch took it, applies both rounds in order, and an abort of k
// takes the nested k+1 with it.
func TestRedoApplierNestedHold(t *testing.T) {
	f := newRoundFixture(t, Config{ShardWords: 1 << 12, WorkersPerShard: 1}, 4)
	ctx, th, sh := context.Background(), f.th, f.shards[0]
	a, b, g1, g2 := f.keys[0][0], f.keys[0][1], f.keys[0][2], f.keys[0][3]
	put := func(key uint64, val string) wal.Record {
		return wal.Record{Kind: wal.RecPut, Key: key, Value: []byte(val)}
	}
	own := []wal.Participant{{Shard: 0, Seq: 2}, {Shard: 1, Seq: 2}}
	prepare := func(xid uint64, parts []wal.Participant, recs ...wal.Record) wal.Record {
		return wal.Record{Kind: wal.RecPrepare, Key: xid, Value: wal.AppendPrepareValue(nil, parts, recs)}
	}
	want := func(step string, vals map[uint64]string) {
		t.Helper()
		for key, val := range vals {
			got, found, err := sh.testGet(ctx, th, key)
			if err != nil || found != (val != "") || string(got) != val {
				t.Fatalf("%s: key %d = %q (found %v, %v), want %q", step, key, got, found, err, val)
			}
		}
	}
	var redo *redoApplier
	feed := func(seq uint64, recs ...wal.Record) {
		t.Helper()
		if err := redo.apply(ctx, th, seq, recs); err != nil {
			t.Fatalf("apply seq %d: %v", seq, err)
		}
	}
	// Seqs 2-5: round 7, a group, round 8 behind an older annotation, a group.
	overlapped := func() {
		redo = &redoApplier{sh: sh}
		feed(2, prepare(7, own, put(a, "k"), put(b, "k")))
		feed(3, put(g1, "between"))
		feed(4, wal.Record{Kind: wal.RecCommit, Key: 6}, // round 6's annotation rides in front; 6 < 7 decides nothing
			prepare(8, append([]wal.Participant{{Shard: 0, Seq: 4}, {Shard: 2, Seq: 9}}, own...), put(b, "k+1")))
		feed(5, put(g2, "behind"))
		want("both held", map[uint64]string{a: "", b: "", g1: "", g2: ""})
		if redo.xid != 7 || redo.from != 2 {
			t.Fatalf("holding xid %d from seq %d; want 7 from 2", redo.xid, redo.from)
		}
	}
	wipe := func() {
		feed(99, wal.Record{Kind: wal.RecDelete, Key: a}, wal.Record{Kind: wal.RecDelete, Key: b},
			wal.Record{Kind: wal.RecDelete, Key: g1}, wal.Record{Kind: wal.RecDelete, Key: g2})
	}

	overlapped()
	feed(6, wal.Record{Kind: wal.RecCommit, Key: 7})
	want("k committed, k+1 held", map[uint64]string{a: "k", b: "k", g1: "between", g2: ""})
	if redo.xid != 8 || redo.from != 4 || len(redo.parts) != 4 || redo.own != 1 {
		t.Fatalf("second hold: xid %d from seq %d, %d participants, %d own records; want 8 from P_k+1's batch 4, 4, 1",
			redo.xid, redo.from, len(redo.parts), redo.own)
	}
	feed(7, wal.Record{Kind: wal.RecAbort, Key: 8})
	want("k+1 aborted", map[uint64]string{a: "k", b: "k", g1: "between", g2: ""})
	if redo.xid != 0 {
		t.Fatalf("still holding %d after the abort", redo.xid)
	}
	wipe()

	overlapped()
	feed(6, wal.Record{Kind: wal.RecCommit, Key: 8}, put(g2, "after"))
	want("watermark", map[uint64]string{a: "k", b: "k+1", g1: "between", g2: "after"})
	if redo.xid != 0 {
		t.Fatalf("still holding %d behind the watermark", redo.xid)
	}
	wipe()

	overlapped()
	feed(6, wal.Record{Kind: wal.RecAbort, Key: 7})
	want("k aborted", map[uint64]string{a: "", b: "", g1: "", g2: ""})
	if redo.xid != 0 {
		t.Fatalf("still holding %d: an aborted round takes the round built on it along", redo.xid)
	}
}

// TestPromotionCommitsHeldSuffix: a follower promoted while it still holds a
// prepare — the leader died before the annotation streamed — applies what it
// holds and annotates its own log (Shard.CommitHeld, what the plane calls on
// promotion), so the log it now leads is self-contained. Rounds overlap, so
// it may hold two, the second inside the first one's suffix: it commits both.
func TestPromotionCommitsHeldSuffix(t *testing.T) {
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
	}, 1)
	ctx, sh, key := context.Background(), f.shards[0], f.keys[0][0]
	// What REPLICATE leaves behind: the frames in the log, their records held.
	for _, recs := range [][]wal.Record{
		{{Kind: wal.RecPrepare, Key: 7, Value: wal.AppendPrepareValue(nil, []wal.Participant{{Shard: 0, Seq: 1}, {Shard: 9, Seq: 1}},
			[]wal.Record{{Kind: wal.RecPut, Key: key, Value: []byte("round")}})}},
		{{Kind: wal.RecPut, Key: key, Value: []byte("group between")}},
		{{Kind: wal.RecPrepare, Key: 8, Value: wal.AppendPrepareValue(nil, []wal.Participant{{Shard: 0, Seq: 3}, {Shard: 9, Seq: 2}, {Shard: 0, Seq: 1}, {Shard: 9, Seq: 1}},
			[]wal.Record{{Kind: wal.RecPut, Key: key, Value: []byte("next round")}})}},
		{{Kind: wal.RecPut, Key: key, Value: []byte("acked group")}},
	} {
		seq, err := appendWAL(sh, recs)
		if err == nil {
			err = sh.redo.apply(ctx, f.th, seq, recs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, found, _ := sh.testGet(ctx, f.th, key); found {
		t.Fatal("a held record reached memory")
	}
	(&Shard{s: f.s, sh: sh}).CommitHeld()
	if val, _, _ := sh.testGet(ctx, f.th, key); string(val) != "acked group" {
		t.Fatalf("after promotion: key = %q, want both held rounds and their suffixes applied", val)
	}
	if a := &sh.redo; a.xid != 0 || a.n != 4 {
		t.Fatalf("after promotion: holding %d, %d records applied; want nothing held and all 4 applied", a.xid, a.n)
	}
	// Shard 9 does not exist: only the annotations can make this replay commit.
	re := f.bootCopy(t, nil)
	if val, _, _ := re.shards[0].testGet(ctx, re.th, key); string(val) != "acked group" {
		t.Errorf("crash image of the promoted log: key = %q", val)
	}
	if n := re.s.Recovery()[0].ResolvedPrepares; n != 0 {
		t.Errorf("the promoted log left %d prepares to resolve", n)
	}
}
