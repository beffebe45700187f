package server_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
// at every distinct point of a three-participant round's window, booted and
// checked for all-or-nothing recovery. The states are written with the wal
// package itself, so they are byte-identical to what a dying votmd leaves
// behind. A round is ONE prepare per participant — every task's records in
// task order, plus the list of (participant, sequence) pairs — one flush, and
// an unsynced commit annotation:
//
//   - some participants' prepares durable, others' missing     → abort all
//   - prepares durable everywhere, no annotation anywhere      → commit all
//   - annotations on some participants, torn or missing on
//     the rest (the coordinator died between the appends)      → commit all
//
// The rule under test: a round is committed iff EVERY listed participant's
// log (or snapshot) reaches its listed sequence. Shard 0 also carries an
// observer lane — a group batch logged behind the prepare, rewriting a key
// the round wrote — which replays at the prepare's position when the round
// commits (the observer's value wins, as it did in memory) and is voided
// with the round when it aborts.

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
	// Per-shard round keys and a baseline key that must survive every case
	// regardless of the round's fate. Every shard's log is: the baseline batch
	// (seq 1), the prepare (seq 2), then the observer batch and/or the commit
	// annotation.
	var gkeys, bkeys [matrixShards]uint64
	var parts []wal.Participant
	for s := 0; s < matrixShards; s++ {
		gkeys[s] = keyOnShard(s, 100)
		bkeys[s] = keyOnShard(s, 500)
		parts = append(parts, wal.Participant{Shard: uint32(s), Seq: 2})
	}
	// The prepare nests two tasks' records in task order: the later task's
	// PUT on the same key must win at replay as it did in memory.
	prep := func(s int) []wal.Record {
		return []wal.Record{{
			Kind: wal.RecPrepare, Key: xid,
			Value: wal.AppendPrepareValue(nil, parts, []wal.Record{
				{Kind: wal.RecPut, Key: gkeys[s], Value: []byte("first task")},
				{Kind: wal.RecPut, Key: gkeys[s], Value: []byte(fmt.Sprintf("g%d", s))},
			}),
		}}
	}
	observer := []wal.Record{{Kind: wal.RecPut, Key: gkeys[0], Value: []byte("observer")}}
	commit := []wal.Record{{Kind: wal.RecCommit, Key: xid}}

	// shardLog says what follows a shard's baseline batch.
	type shardLog struct {
		prepare, commit bool
		tear            int64 // bytes torn off the tail
	}
	all := func(l shardLog) [matrixShards]shardLog { return [matrixShards]shardLog{l, l, l} }
	cases := []struct {
		name      string
		logs      [matrixShards]shardLog
		committed bool
	}{
		{"prepare missing on one participant", [matrixShards]shardLog{{prepare: true}, {prepare: true}, {}}, false},
		{"all prepared, no commit anywhere", all(shardLog{prepare: true}), true},
		{"commit flushed on one participant only", [matrixShards]shardLog{{prepare: true, commit: true}, {prepare: true}, {prepare: true}}, true},
		{"commit flushed everywhere", all(shardLog{prepare: true, commit: true}), true},
		{"commit torn mid-frame on one participant",
			[matrixShards]shardLog{{prepare: true, commit: true}, {prepare: true, commit: true, tear: 3}, {prepare: true}}, true},
		// The same windows as a live round leaves them: the flush of the
		// prepares finished on one participant only (the others' frames are
		// torn or absent), finished everywhere, and finished with the crash
		// landing between the coordinator's annotation appends.
		{"round: crash after one participant's flush",
			[matrixShards]shardLog{{prepare: true, tear: 5}, {prepare: true}, {}}, false},
		{"round: crash after the prepares", all(shardLog{prepare: true}), true},
		{"round: crash between commit appends",
			[matrixShards]shardLog{{prepare: true, commit: true}, {prepare: true, commit: true}, {prepare: true}}, true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var resolved [matrixShards]bool
			for s, l := range tc.logs {
				batches := [][]wal.Record{{{Kind: wal.RecPut, Key: bkeys[s], Value: []byte("base")}}}
				if l.prepare {
					batches = append(batches, prep(s))
					// A torn prepare frame is no prepare: nothing to resolve.
					resolved[s] = !l.commit && l.tear == 0 || l.commit && l.tear != 0
					if s == 0 && l.tear == 0 {
						batches = append(batches, observer)
					}
				}
				if l.commit {
					batches = append(batches, commit)
				}
				writeShardLog(t, dir, s, batches...)
				if l.tear != 0 {
					tearTail(t, dir, s, l.tear)
				}
			}

			cfg := server.Config{
				Shards:        matrixShards,
				MaxValueLen:   1 << 10,
				Durability:    server.DurabilityGroup,
				DataDir:       dir,
				SnapshotEvery: time.Hour,
			}
			srv, addr := startServer(t, cfg)
			verifyMatrixState(t, addr, gkeys, bkeys, tc.committed)
			for s, want := range resolved {
				if got := srv.Recovery()[s].ResolvedPrepares; (got == 1) != want || got > 1 {
					t.Errorf("shard %d: ResolvedPrepares = %d, want resolved = %v", s, got, want)
				}
			}

			// Startup appended resolution records, so a SECOND crash-restart
			// from a copy of the live directory must reach the same state
			// with nothing left to resolve: the logs are self-contained (an
			// abort record voids the observer batch in front of it too).
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
}

// TestCrossShardRecoveryLegacyLog boots logs the previous votmd wrote — a
// round as one prepare PER TASK ([P_t1 P_t2][C_t1 C_t2], the value a bare
// record list), each task decided on its own. Decided in-log, they replay:
// a task applies at its own decision and an abort drops that task alone. A
// legacy prepare left UNdecided is a hard startup error naming the way out —
// the any-commit rule that could decide it is gone.
func TestCrossShardRecoveryLegacyLog(t *testing.T) {
	k0, k1, k2 := keyOnShard(0, 100), keyOnShard(0, 200), keyOnShard(0, 300)
	legacy := func(xid, key uint64, val string) wal.Record {
		return wal.Record{Kind: wal.RecPrepare, Key: xid,
			Value: wal.AppendRecords(nil, []wal.Record{{Kind: wal.RecPut, Key: key, Value: []byte(val)}})}
	}
	cfg := server.Config{
		Shards: matrixShards, MaxValueLen: 1 << 10,
		Durability: server.DurabilityGroup, SnapshotEvery: time.Hour,
	}

	cfg.DataDir = t.TempDir()
	writeShardLog(t, cfg.DataDir, 0,
		[]wal.Record{legacy(1, k0, "t1"), legacy(2, k1, "t2"), legacy(3, k2, "t3")},
		// The crash cut the commit batch; that votmd's restart then decided
		// each task by itself: t2 aborted between two commits.
		[]wal.Record{{Kind: wal.RecCommit, Key: 1}}, []wal.Record{{Kind: wal.RecAbort, Key: 2}}, []wal.Record{{Kind: wal.RecCommit, Key: 3}},
		[]wal.Record{{Kind: wal.RecPut, Key: k0, Value: []byte("later group")}})
	srv, addr := startServer(t, cfg)
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()
	for key, want := range map[uint64]string{k0: "later group", k2: "t3"} {
		if got, err := c.Get(ctx, key); err != nil || string(got) != want {
			t.Errorf("key %d: got %q, %v; want %q", key, got, err, want)
		}
	}
	if got, err := c.Get(ctx, k1); !errors.Is(err, wire.ErrNotFound) {
		t.Errorf("aborted legacy task's key %d: got %q, %v; want NOT_FOUND", k1, got, err)
	}
	if got := srv.Recovery()[0].ResolvedPrepares; got != 0 {
		t.Errorf("ResolvedPrepares = %d, want 0: everything was decided in-log", got)
	}

	cfg.DataDir = t.TempDir()
	writeShardLog(t, cfg.DataDir, 0, []wal.Record{legacy(1, k0, "t1")})
	writeShardLog(t, cfg.DataDir, 1, []wal.Record{legacy(1, keyOnShard(1, 100), "t1")}, []wal.Record{{Kind: wal.RecCommit, Key: 1}})
	if _, err := server.New(cfg); err == nil || !strings.Contains(err.Error(), "older votmd") {
		t.Fatalf("New over an undecided legacy prepare: %v; want the error that names the older binary", err)
	}
}

// verifyMatrixState asserts the round's three keys are all present — each
// with the later task's value, shard 0's overwritten by the observer — or all
// absent, and the baselines always survived.
func verifyMatrixState(t *testing.T, addr string, gkeys, bkeys [matrixShards]uint64, committed bool) {
	t.Helper()
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()
	for s := 0; s < matrixShards; s++ {
		want := fmt.Sprintf("g%d", s)
		if s == 0 {
			want = "observer"
		}
		got, err := c.Get(ctx, gkeys[s])
		if committed {
			if err != nil || string(got) != want {
				t.Errorf("shard %d round key %d: got %q, %v; want %q", s, gkeys[s], got, err, want)
			}
		} else if !errors.Is(err, wire.ErrNotFound) {
			t.Errorf("shard %d round key %d: got %q, %v; want NOT_FOUND (an aborted round or its observer leaked)", s, gkeys[s], got, err)
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
// Two shapes: every participant written (a prepare and, once the one flush
// returned, a commit annotation per log), and a single written participant
// beside two that are only read (a plain batch record, no prepare anywhere).
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
		// failAppend / failSync: the 1-based WAL append / fsync to fail (0 =
		// none). An all-writable round appends its prepares as 1-3 and its
		// three fsyncs are its one flush; the commit annotations ride the
		// participants' next batches — 4 and 5 are the follow-up PUTs below.
		failAppend, failSync int
		// acked: the batch answers OK — an annotation that cannot be
		// appended changes nothing about a round already durable.
		acked    bool
		prepares uint64 // CrossShardPrepares summed over shards
	}{
		{name: "all writable, acknowledged", subs: allWritable, acked: true, prepares: 3},
		{name: "all writable, last prepare append fails", subs: allWritable, failAppend: 3, prepares: 2},
		{name: "all writable, phase-1 fsync fails", subs: allWritable, failSync: 1, prepares: 3},
		{name: "all writable, second commit append fails", subs: allWritable, failAppend: 5, acked: true, prepares: 3},
		{name: "one writable participant, acknowledged", subs: oneWritable, acked: true},
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
			if tc.acked {
				// A write group per participant carries the round's commit
				// annotation in front of its own record; with failAppend 5
				// the second of those batches fails and takes the annotation
				// with it.
				for s := 0; s < matrixShards; s++ {
					_, perr := c.Put(ctx, bkeys[s], []byte("base"))
					if failed := tc.failAppend == 4+s; failed != errors.Is(perr, wire.ErrTxFault) || (!failed && perr != nil) {
						t.Errorf("follow-up put on shard %d: %v", s, perr)
					}
				}
			}
			armed.Store(false)
			if !tc.acked && !errors.Is(err, wire.ErrTxFault) {
				t.Fatalf("atomic with a failing disk: %v, want TX_FAULT", err)
			}
			if tc.acked && err != nil {
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
			if tc.acked && present != writes {
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
