package server_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"votm/client"
	"votm/internal/faultinject"
	"votm/internal/server"
	"votm/internal/wal"
	"votm/wire"
)

// The cross-shard recovery matrix: hand-built WAL states modelling a SIGKILL
// at every distinct point in the 2PC window of a three-participant ATOMIC
// group, booted and checked for all-or-nothing recovery. The states are
// written with the wal package itself, so they are byte-identical to what a
// dying votmd leaves behind:
//
//   - prepares fsynced on some participants, missing on others  → abort
//   - prepares everywhere, no commit record anywhere            → abort
//   - a commit record on ONE participant only (the coordinator
//     died mid phase two)                                       → commit all
//   - commit records everywhere                                 → commit all
//   - a commit record torn mid-frame on one participant         → commit all
//     (the surviving participant's commit record decides)
//
// The rule under test: an xid is committed iff ANY participant's log holds
// its RecCommit — sound because every participant's prepare is fsynced
// before the first commit record is written.

const matrixShards = 3

// keyOnShard returns the first key >= start hashing to the given shard.
func keyOnShard(shard int, start uint64) uint64 {
	for k := start; ; k++ {
		if server.ShardOf(k, matrixShards) == shard {
			return k
		}
	}
}

// writeShardLog builds shard id's WAL under dataDir from scratch, one
// fsynced batch per element of batches — exactly how the server lays down a
// prepare and its commit as separate appends.
func writeShardLog(t *testing.T, dataDir string, id int, batches ...[]wal.Record) {
	t.Helper()
	dir := filepath.Join(dataDir, fmt.Sprintf("shard-%04d", id))
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("shard %d: open: %v", id, err)
	}
	if err := log.Start(1); err != nil {
		t.Fatalf("shard %d: start: %v", id, err)
	}
	for _, recs := range batches {
		seq, _, err := log.Append(recs)
		if err != nil {
			t.Fatalf("shard %d: append: %v", id, err)
		}
		if err := log.Sync(seq); err != nil {
			t.Fatalf("shard %d: sync: %v", id, err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatalf("shard %d: close: %v", id, err)
	}
}

// tearTail truncates the last n bytes of shard id's only WAL segment,
// simulating a commit record half-written when the power went out.
func tearTail(t *testing.T, dataDir string, id int, n int64) {
	t.Helper()
	dir := filepath.Join(dataDir, fmt.Sprintf("shard-%04d", id))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-n); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("shard %d: no segment to tear", id)
}

func TestCrossShardRecoveryMatrix(t *testing.T) {
	const xid = 0xfeed0001
	prep := func(key uint64, val string) []wal.Record {
		return []wal.Record{{
			Kind: wal.RecPrepare, Key: xid,
			Value: wal.AppendPrepareValue(nil, []wal.Record{
				{Kind: wal.RecPut, Key: key, Value: []byte(val)},
			}),
		}}
	}
	commit := []wal.Record{{Kind: wal.RecCommit, Key: xid}}

	// Per-shard group payload keys and a baseline key that must survive
	// every case regardless of the group's fate.
	var gkeys, bkeys [matrixShards]uint64
	for s := 0; s < matrixShards; s++ {
		gkeys[s] = keyOnShard(s, 100)
		bkeys[s] = keyOnShard(s, 500)
	}
	baseline := func(s int) []wal.Record {
		return []wal.Record{{Kind: wal.RecPut, Key: bkeys[s], Value: []byte("base")}}
	}

	cases := []struct {
		name string
		// build writes the three shard logs; every shard always gets its
		// baseline batch first.
		build     func(t *testing.T, dir string)
		committed bool
		// resolved[s]: shard s's log left the prepare undecided and startup
		// had to append a resolution record.
		resolved [matrixShards]bool
	}{
		{
			name: "prepare missing on one participant",
			build: func(t *testing.T, dir string) {
				writeShardLog(t, dir, 0, baseline(0), prep(gkeys[0], "g0"))
				writeShardLog(t, dir, 1, baseline(1), prep(gkeys[1], "g1"))
				writeShardLog(t, dir, 2, baseline(2))
			},
			committed: false,
			resolved:  [matrixShards]bool{true, true, false},
		},
		{
			name: "all prepared, no commit anywhere",
			build: func(t *testing.T, dir string) {
				for s := 0; s < matrixShards; s++ {
					writeShardLog(t, dir, s, baseline(s), prep(gkeys[s], fmt.Sprintf("g%d", s)))
				}
			},
			committed: false,
			resolved:  [matrixShards]bool{true, true, true},
		},
		{
			name: "commit flushed on one participant only",
			build: func(t *testing.T, dir string) {
				writeShardLog(t, dir, 0, baseline(0), prep(gkeys[0], "g0"), commit)
				writeShardLog(t, dir, 1, baseline(1), prep(gkeys[1], "g1"))
				writeShardLog(t, dir, 2, baseline(2), prep(gkeys[2], "g2"))
			},
			committed: true,
			resolved:  [matrixShards]bool{false, true, true},
		},
		{
			name: "commit flushed everywhere",
			build: func(t *testing.T, dir string) {
				for s := 0; s < matrixShards; s++ {
					writeShardLog(t, dir, s, baseline(s), prep(gkeys[s], fmt.Sprintf("g%d", s)), commit)
				}
			},
			committed: true,
			resolved:  [matrixShards]bool{false, false, false},
		},
		{
			name: "commit torn mid-frame on one participant",
			build: func(t *testing.T, dir string) {
				writeShardLog(t, dir, 0, baseline(0), prep(gkeys[0], "g0"), commit)
				writeShardLog(t, dir, 1, baseline(1), prep(gkeys[1], "g1"), commit)
				writeShardLog(t, dir, 2, baseline(2), prep(gkeys[2], "g2"))
				tearTail(t, dir, 1, 3) // shard 1's commit frame is torn away
			},
			committed: true,
			resolved:  [matrixShards]bool{false, true, true},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)

			cfg := server.Config{
				Shards:        matrixShards,
				MaxValueLen:   1 << 10,
				Durability:    server.DurabilityGroup,
				DataDir:       dir,
				SnapshotEvery: time.Hour,
			}
			srv, addr := startServer(t, cfg)
			verifyMatrixState(t, addr, gkeys, bkeys, tc.committed)

			for s, want := range tc.resolved {
				got := srv.Recovery()[s].ResolvedPrepares
				if want && got != 1 {
					t.Errorf("shard %d: ResolvedPrepares = %d, want 1", s, got)
				}
				if !want && got != 0 {
					t.Errorf("shard %d: ResolvedPrepares = %d, want 0", s, got)
				}
			}

			// Startup appended resolution records, so a SECOND crash-restart
			// from a copy of the live directory must reach the same state
			// with nothing left to resolve: the logs are self-contained.
			again := t.TempDir()
			copyTree(t, dir, again)
			cfg2 := cfg
			cfg2.DataDir = again
			srv2, addr2 := startServer(t, cfg2)
			verifyMatrixState(t, addr2, gkeys, bkeys, tc.committed)
			for s := 0; s < matrixShards; s++ {
				if got := srv2.Recovery()[s].ResolvedPrepares; got != 0 {
					t.Errorf("second boot shard %d: ResolvedPrepares = %d, want 0 (resolution not persisted)", s, got)
				}
			}
		})
	}

	// A many-task round, as the server-wide coordinator lays it down: five
	// tasks dispatched to two different coordinating shards (shard 0 for the
	// tasks touching it, shard 1 for the rest) share ONE round, so each
	// participant's log holds one prepare batch [P_t..] and one commit batch
	// [C_t..] in task order, every task under its own xid. A crash inside
	// that window must still resolve every task on its own, all or nothing,
	// by the any-commit rule.
	round := [][]int{{0, 1, 2}, {1, 2}, {0, 2}, {1, 2}, {0, 1}} // participants per task
	xidOf := func(ti int) uint64 { return 0xbeef0000 + uint64(ti) }
	rkey := func(ti, s int) uint64 { return keyOnShard(s, 1000+100*uint64(ti)) }
	rval := func(ti, s int) string { return fmt.Sprintf("t%d-s%d", ti, s) }
	// batches returns shard s's prepare batch and commit batch of the round.
	batches := func(s int) (prep, commit []wal.Record) {
		for ti, parts := range round {
			for _, p := range parts {
				if p == s {
					prep = append(prep, wal.Record{Kind: wal.RecPrepare, Key: xidOf(ti),
						Value: wal.AppendPrepareValue(nil, []wal.Record{{Kind: wal.RecPut, Key: rkey(ti, s), Value: []byte(rval(ti, s))}})})
					commit = append(commit, wal.Record{Kind: wal.RecCommit, Key: xidOf(ti)})
				}
			}
		}
		return prep, commit
	}
	for _, tc := range []struct {
		name string
		// commitOn[s]: shard s's commit batch reached its log before the crash.
		commitOn [matrixShards]bool
		// committed[ti]: some participant of task ti holds its commit record.
		committed []bool
	}{
		{"round: crash after the prepares", [matrixShards]bool{}, []bool{false, false, false, false, false}},
		// Commit batches are appended in canonical participant order: the
		// crash lands after shard 0's, so only the tasks touching shard 0 are
		// decided — the two coordinated by shard 1 abort.
		{"round: crash between commit appends", [matrixShards]bool{true, false, false}, []bool{true, false, true, false, true}},
		// Every commit batch was appended but only shard 1's flush finished.
		{"round: crash after one participant's flush", [matrixShards]bool{false, true, false}, []bool{true, true, false, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for s := 0; s < matrixShards; s++ {
				prep, commit := batches(s)
				logs := [][]wal.Record{baseline(s), prep}
				if tc.commitOn[s] {
					logs = append(logs, commit)
				}
				writeShardLog(t, dir, s, logs...)
			}
			cfg := server.Config{
				Shards: matrixShards, MaxValueLen: 1 << 10,
				Durability: server.DurabilityGroup, DataDir: dir, SnapshotEvery: time.Hour,
			}
			verify := func(addr string) {
				t.Helper()
				c := dialClient(t, addr, client.Options{})
				ctx := context.Background()
				for ti, parts := range round {
					for _, s := range parts {
						got, err := c.Get(ctx, rkey(ti, s))
						if tc.committed[ti] && (err != nil || string(got) != rval(ti, s)) {
							t.Errorf("task %d on shard %d: got %q, %v; want its committed value", ti, s, got, err)
						}
						if !tc.committed[ti] && !errors.Is(err, wire.ErrNotFound) {
							t.Errorf("task %d on shard %d: got %q, %v; want NOT_FOUND (an undecided task leaked)", ti, s, got, err)
						}
					}
				}
				for s := 0; s < matrixShards; s++ {
					if got, err := c.Get(ctx, bkeys[s]); err != nil || string(got) != "base" {
						t.Errorf("shard %d baseline key %d: got %q, %v", s, bkeys[s], got, err)
					}
				}
			}
			srv, addr := startServer(t, cfg)
			verify(addr)
			for s := 0; s < matrixShards; s++ {
				prep, _ := batches(s)
				want := len(prep)
				if tc.commitOn[s] {
					want = 0 // decided in-log
				}
				if got := srv.Recovery()[s].ResolvedPrepares; got != want {
					t.Errorf("shard %d: ResolvedPrepares = %d, want %d", s, got, want)
				}
			}
			again := t.TempDir()
			copyTree(t, dir, again)
			cfg.DataDir = again
			srv2, addr2 := startServer(t, cfg)
			verify(addr2)
			for s := 0; s < matrixShards; s++ {
				if got := srv2.Recovery()[s].ResolvedPrepares; got != 0 {
					t.Errorf("second boot shard %d: ResolvedPrepares = %d, want 0 (resolution not persisted)", s, got)
				}
			}
		})
	}
}

// verifyMatrixState asserts the group's three keys are all present (with
// their per-shard values) or all absent, and the baselines always survived.
func verifyMatrixState(t *testing.T, addr string, gkeys, bkeys [matrixShards]uint64, committed bool) {
	t.Helper()
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()
	for s := 0; s < matrixShards; s++ {
		got, err := c.Get(ctx, gkeys[s])
		if committed {
			if err != nil || string(got) != fmt.Sprintf("g%d", s) {
				t.Errorf("shard %d group key %d: got %q, %v; want committed value", s, gkeys[s], got, err)
			}
		} else if !errors.Is(err, wire.ErrNotFound) {
			t.Errorf("shard %d group key %d: got %q, %v; want NOT_FOUND (aborted group leaked)", s, gkeys[s], got, err)
		}
		if got, err := c.Get(ctx, bkeys[s]); err != nil || string(got) != "base" {
			t.Errorf("shard %d baseline key %d: got %q, %v", s, bkeys[s], got, err)
		}
	}
}

// TestCrossShardRecoveryOneTaskRound drives the live protocol where the
// matrix above hand-builds its outcome: ONE three-shard ATOMIC — a round of
// one task — runs against a real server whose disk fails at a chosen point
// of the round's WAL traffic, the data directory is copied as a SIGKILL at
// that instant would leave it, and the copy must recover all-or-nothing.
// Two shapes: every participant written (a prepare/commit pair per log), and
// a single written participant beside two that are only read (a plain batch
// record, no prepare anywhere).
func TestCrossShardRecoveryOneTaskRound(t *testing.T) {
	var gkeys, bkeys [matrixShards]uint64
	for s := 0; s < matrixShards; s++ {
		gkeys[s] = keyOnShard(s, 100)
		bkeys[s] = keyOnShard(s, 500)
	}
	allWritable := []wire.Sub{
		{Kind: wire.SubPut, Key: gkeys[0], Value: []byte("g0")},
		{Kind: wire.SubPut, Key: gkeys[1], Value: []byte("g1")},
		{Kind: wire.SubPut, Key: gkeys[2], Value: []byte("g2")},
	}
	oneWritable := []wire.Sub{
		{Kind: wire.SubPut, Key: gkeys[0], Value: []byte("g0")},
		{Kind: wire.SubGet, Key: bkeys[1]},
		{Kind: wire.SubGet, Key: bkeys[2]},
	}

	cases := []struct {
		name string
		subs []wire.Sub
		// failAppend / failSync: the 1-based WAL append / fsync of the round
		// to fail (0 = none). An all-writable round appends prepares as 1-3
		// and commit records as 4-6; its first three fsyncs are phase 1.
		failAppend, failSync int
		prepares             uint64 // CrossShardPrepares summed over shards
	}{
		{name: "all writable, acknowledged", subs: allWritable, prepares: 3},
		{name: "all writable, last prepare append fails", subs: allWritable, failAppend: 3, prepares: 2},
		{name: "all writable, phase-1 fsync fails", subs: allWritable, failSync: 1, prepares: 3},
		{name: "all writable, second commit append fails", subs: allWritable, failAppend: 5, prepares: 3},
		{name: "one writable participant, acknowledged", subs: oneWritable},
		{name: "one writable participant, append fails", subs: oneWritable, failAppend: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var armed atomic.Bool
			var appends, syncs atomic.Int32
			cfg := server.Config{
				Shards:        matrixShards,
				MaxValueLen:   1 << 10,
				Durability:    server.DurabilityGroup,
				DataDir:       t.TempDir(),
				SnapshotEvery: time.Hour,
				DiskFaultHook: func(op faultinject.DiskOp) error {
					if !armed.Load() {
						return nil
					}
					switch op {
					case faultinject.DiskAppend:
						if int(appends.Add(1)) == tc.failAppend {
							return &faultinject.InjectedDiskFault{Op: op}
						}
					case faultinject.DiskSync:
						if int(syncs.Add(1)) == tc.failSync {
							return &faultinject.InjectedDiskFault{Op: op}
						}
					}
					return nil
				},
			}
			_, addr := startServer(t, cfg)
			c := dialClient(t, addr, client.Options{})
			ctx := context.Background()
			for s := 0; s < matrixShards; s++ {
				if _, err := c.Put(ctx, bkeys[s], []byte("base")); err != nil {
					t.Fatalf("baseline put: %v", err)
				}
			}

			armed.Store(true)
			_, err := c.Atomic(ctx, tc.subs)
			armed.Store(false)
			faulty := tc.failAppend != 0 || tc.failSync != 0
			if faulty && !errors.Is(err, wire.ErrTxFault) {
				t.Fatalf("atomic with a failing disk: %v, want TX_FAULT", err)
			}
			if !faulty && err != nil {
				t.Fatalf("atomic: %v", err)
			}
			stats, err := c.Stats(ctx, wire.AllShards)
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			var prepares uint64
			for _, st := range stats {
				prepares += st.CrossShardPrepares
			}
			if prepares != tc.prepares {
				t.Errorf("CrossShardPrepares = %d, want %d", prepares, tc.prepares)
			}

			// SIGKILL now: boot a copy of the live directory.
			crashed := t.TempDir()
			copyTree(t, cfg.DataDir, crashed)
			cfg2 := cfg
			cfg2.DataDir, cfg2.DiskFaultHook = crashed, nil
			_, addr2 := startServer(t, cfg2)
			c2 := dialClient(t, addr2, client.Options{})
			present, writes := 0, 0
			for _, sub := range tc.subs {
				if sub.Kind != wire.SubPut {
					continue
				}
				writes++
				switch got, err := c2.Get(ctx, sub.Key); {
				case err == nil && string(got) == string(sub.Value):
					present++
				case !errors.Is(err, wire.ErrNotFound):
					t.Errorf("group key %d: got %q, %v", sub.Key, got, err)
				}
			}
			if present != 0 && present != writes {
				t.Errorf("recovered %d of the batch's %d writes: not all-or-nothing", present, writes)
			}
			if !faulty && present != writes {
				t.Errorf("acknowledged batch lost: %d of %d writes recovered", present, writes)
			}
			for s := 0; s < matrixShards; s++ {
				if got, err := c2.Get(ctx, bkeys[s]); err != nil || string(got) != "base" {
					t.Errorf("shard %d baseline key %d: got %q, %v", s, bkeys[s], got, err)
				}
			}

			// Startup resolved whatever the crash left undecided: a second
			// crash-restart from the recovered directory resolves nothing.
			again := t.TempDir()
			copyTree(t, crashed, again)
			cfg3 := cfg2
			cfg3.DataDir = again
			srv3, _ := startServer(t, cfg3)
			for s := 0; s < matrixShards; s++ {
				if got := srv3.Recovery()[s].ResolvedPrepares; got != 0 {
					t.Errorf("second boot shard %d: ResolvedPrepares = %d, want 0", s, got)
				}
			}
		})
	}
}
