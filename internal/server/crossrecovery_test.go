package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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
//
// Rounds overlap, so a crash can also find TWO rounds in doubt, the second
// built on the first: that half of the matrix (twoRoundsInDoubt) takes its
// logs from a live server stopped inside a held flush and cuts copies of them.

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
	twoRoundsInDoubt(t)
	t.Run("three rounds: the first faulted and gone, the third built on the second", faultedRoundLeavesQueue)
}

// cutFrames truncates shard id's only WAL segment to its first keep batch
// frames: the log as it would be had the later appends never reached the disk.
func cutFrames(t *testing.T, dataDir string, id, keep int) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dataDir, fmt.Sprintf("shard-%04d", id), "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("shard %d: segments %v, want one", id, segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for ; keep > 0; keep-- {
		if off+8 > len(b) {
			t.Fatalf("shard %d: log ends before frame boundary %d", id, off)
		}
		off += 8 + int(binary.LittleEndian.Uint32(b[off:])) // u32 bodyLen | u32 crc | body
	}
	if err := os.Truncate(segs[0], int64(off)); err != nil {
		t.Fatal(err)
	}
}

// logRecords lists the records of shard id's log in a scratch copy of dataDir.
func logRecords(t *testing.T, dataDir string, id int) (recs []wal.Record) {
	t.Helper()
	dir := t.TempDir()
	copyTree(t, dataDir, dir)
	log, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%04d", id)), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Replay(1, func(_ uint64, batch []wal.Record) error {
		for _, r := range batch {
			recs = append(recs, wal.Record{Kind: r.Kind, Key: r.Key})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// twoRoundsInDoubt is the matrix for overlapped rounds. A live server, every
// flush held, runs round k = {A, B} and, back to back, round k+1 = {B, C} —
// k+1 rewrites the key k wrote on B — with a write group on B logged between
// the two prepares and one behind P_k+1. Nothing is answered; the data
// directory is what a SIGKILL would leave, and each case boots a copy of it
// with some log cut short:
//
//	(a) every log whole                    → both rounds, both groups
//	(b) C's log without P_k+1              → k and the group between; k+1 aborts
//	                                         on B too, the group behind it with it
//	(c) A's log without P_k                → neither round — also not on C, which
//	                                         never saw P_k: P_k+1 lists k's
//	                                         participants, and that alone aborts it
//	(e) a second boot of (b)'s directory   → the same state, nothing to resolve
//
// and, after the flushes were let go and one more batch logged on B,
//
//	(d) B holds P_k, P_k+1, C_k+1 and no C_k (the owed annotation was
//	    overwritten before a batch took it)  → both apply on B, in order, from
//	    the watermark alone
func twoRoundsInDoubt(t *testing.T) {
	const A, B, C = 0, 1, 2
	kA, kB, kC := keyOnShard(A, 100), keyOnShard(B, 100), keyOnShard(C, 100)
	between, behind, later := keyOnShard(B, 200), keyOnShard(B, 300), keyOnShard(B, 400)
	var base [matrixShards]uint64
	for s := range base {
		base[s] = keyOnShard(s, 500)
	}

	var armed atomic.Bool
	hold := make(chan struct{})
	var letGo sync.Once
	cfg := server.Config{
		Shards:        matrixShards,
		Durability:    server.DurabilityGroup,
		DataDir:       t.TempDir(),
		SnapshotEvery: time.Hour,
		DiskFaultHook: func(op faultinject.DiskOp) error {
			if op == faultinject.DiskSync && armed.Load() {
				<-hold
			}
			return nil
		},
	}
	srv, addr := startServer(t, cfg)
	t.Cleanup(func() { letGo.Do(func() { close(hold) }) }) // before the server's Shutdown
	ctx := context.Background()
	c := dialClient(t, addr, client.Options{})
	for s := range base {
		if _, err := c.Put(ctx, base[s], []byte("base")); err != nil {
			t.Fatalf("baseline put: %v", err)
		}
	}

	// Each step's request stays unanswered behind the held flushes; the step is
	// over once the logs it writes to have taken one more append.
	appends := func() (n [matrixShards]uint64) {
		for _, st := range srv.StatsAll() {
			n[st.Shard] = st.WalAppends
		}
		return n
	}
	var answers []chan error
	step := func(what string, logs []int, do func(c *client.Client) error) {
		t.Helper()
		want := appends()
		for _, s := range logs {
			want[s]++
		}
		cl, done := dialClient(t, addr, client.Options{}), make(chan error, 1)
		answers = append(answers, done)
		go func() { done <- do(cl) }()
		for deadline := time.Now().Add(5 * time.Second); appends() != want; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: appends per shard %v, want %v", what, appends(), want)
			}
		}
	}
	put := func(key uint64, val string) func(*client.Client) error {
		return func(c *client.Client) error { _, err := c.Put(ctx, key, []byte(val)); return err }
	}
	atomicPuts := func(val string, keys ...uint64) func(*client.Client) error {
		return func(c *client.Client) error {
			var subs []wire.Sub
			for _, k := range keys {
				subs = append(subs, wire.Sub{Kind: wire.SubPut, Key: k, Value: []byte(val)})
			}
			_, err := c.Atomic(ctx, subs)
			return err
		}
	}
	armed.Store(true)
	step("round k", []int{A, B}, atomicPuts("k", kA, kB))
	step("the group between the prepares", []int{B}, put(between, "between"))
	step("round k+1, round k in doubt", []int{B, C}, atomicPuts("k+1", kB, kC))
	step("the group behind P_k+1", []int{B}, put(behind, "behind"))
	if rs := srv.RoundStats(); rs.Rounds != 2 || rs.Overlapped != 1 || rs.InDoubtHigh != 2 {
		t.Fatalf("round counters %+v; want round k+1 built while round k was in doubt", rs)
	}
	image := t.TempDir()
	copyTree(t, cfg.DataDir, image)

	// boot starts a server on a copy of from, cut first, and checks every key:
	// "" means the key must be absent.
	boot := func(t *testing.T, from string, cut func(dir string), want map[uint64]string, resolved [matrixShards]int) string {
		t.Helper()
		cfg2 := cfg
		cfg2.DataDir, cfg2.DiskFaultHook = t.TempDir(), nil
		copyTree(t, from, cfg2.DataDir)
		if cut != nil {
			cut(cfg2.DataDir)
		}
		srv2, addr2 := startServer(t, cfg2)
		c2 := dialClient(t, addr2, client.Options{})
		for s := range base {
			want[base[s]] = "base"
		}
		for key, val := range want {
			got, err := c2.Get(ctx, key)
			switch {
			case val == "" && !errors.Is(err, wire.ErrNotFound):
				t.Errorf("key %d (shard %d): got %q, %v; want NOT_FOUND", key, server.ShardOf(key, matrixShards), got, err)
			case val != "" && (err != nil || string(got) != val):
				t.Errorf("key %d (shard %d): got %q, %v; want %q", key, server.ShardOf(key, matrixShards), got, err, val)
			}
		}
		for s, n := range resolved {
			if got := srv2.Recovery()[s].ResolvedPrepares; got != n {
				t.Errorf("shard %d: ResolvedPrepares = %d, want %d", s, got, n)
			}
		}
		return cfg2.DataDir
	}
	// Every log is: the baseline batch, then what the steps appended.
	t.Run("two rounds: all prepared", func(t *testing.T) {
		boot(t, image, nil,
			map[uint64]string{kA: "k", kB: "k+1", kC: "k+1", between: "between", behind: "behind"}, [matrixShards]int{1, 2, 1})
	})
	t.Run("two rounds: second round's prepare missing on one participant", func(t *testing.T) {
		want := func() map[uint64]string {
			return map[uint64]string{kA: "k", kB: "k", kC: "", between: "between", behind: ""}
		}
		dir := boot(t, image, func(dir string) { cutFrames(t, dir, C, 1) }, want(), [matrixShards]int{1, 2, 0})
		// (e) The verdicts were appended: a second crash-restart replays them.
		boot(t, dir, nil, want(), [matrixShards]int{})
	})
	t.Run("two rounds: first round's prepare missing on one participant", func(t *testing.T) {
		boot(t, image, func(dir string) { cutFrames(t, dir, A, 1) },
			map[uint64]string{kA: "", kB: "", kC: "", between: "", behind: ""}, [matrixShards]int{0, 1, 1})
	})

	// Let the flushes go: both rounds settle, first k — B owes C_k — then k+1,
	// whose annotation overwrites it; the next batch B's log takes carries C_k+1.
	letGo.Do(func() { close(hold) })
	for i, done := range answers {
		if err := <-done; err != nil {
			t.Fatalf("step %d after the flushes were let go: %v", i+1, err)
		}
	}
	if _, err := c.Put(ctx, later, []byte("later")); err != nil {
		t.Fatalf("put after both rounds settled: %v", err)
	}
	t.Run("two rounds: only the later round's annotation in a log", func(t *testing.T) {
		var prepares, commits []uint64
		for _, r := range logRecords(t, cfg.DataDir, B) {
			switch r.Kind {
			case wal.RecPrepare:
				prepares = append(prepares, r.Key)
			case wal.RecCommit:
				commits = append(commits, r.Key)
			}
		}
		if len(prepares) != 2 || len(commits) != 1 || commits[0] != prepares[1] {
			t.Fatalf("log B: prepares %x, commit annotations %x; want P_k, P_k+1 and C_k+1 alone", prepares, commits)
		}
		boot(t, cfg.DataDir, nil,
			map[uint64]string{kA: "k", kB: "k+1", kC: "k+1", between: "between", behind: "behind", later: "later"}, [matrixShards]int{1, 0, 1})
	})
}

// faultedRoundLeavesQueue is the matrix case for a round that settles with a
// fault while a round built on it is still in flight. Round k = {A, B} loses
// A's flush; round k+1 = {B, C} is appended behind it and C's flush stays held,
// so when k settles — A and B read-only, its flight free — C is still writable;
// then round k+2 = {C, D} arrives. Its prepare would list k+1's participants
// and not k's: with A's log cut below P_k, recovery aborts k and k+1, drops
// P_k+2 with k+1's held suffix on C — and would commit k+2 on D, where every
// listed sequence is durable. So the coordinator refuses k+2 on C, read-only
// from the moment k+1 inherited the fault: the image restarts with no round.
//
// Every armed flush posts its own verdict channel, and the steps are ordered
// so that only one flusher can be arriving: whose call it is, is known.
func faultedRoundLeavesQueue(t *testing.T) {
	const A, B, C, D = 0, 1, 2, 3
	var armed atomic.Bool
	calls, quit := make(chan chan error, 16), make(chan struct{})
	cfg := server.Config{
		Shards:        4,
		Durability:    server.DurabilityGroup,
		DataDir:       t.TempDir(),
		SnapshotEvery: time.Hour,
		DiskFaultHook: func(op faultinject.DiskOp) error {
			if op != faultinject.DiskSync || !armed.Load() {
				return nil
			}
			verdict := make(chan error, 1)
			calls <- verdict
			select {
			case err := <-verdict:
				return err
			case <-quit:
				return nil
			}
		},
	}
	srv, addr := startServer(t, cfg)
	var letGo sync.Once
	t.Cleanup(func() { letGo.Do(func() { close(quit) }) }) // before the server's Shutdown
	key := func(shard int, start uint64) uint64 { return keysOnShard(srv, shard, 1, start)[0] }
	pre, kA, kB, k1B, k1C, k2C, k2D := key(A, 50), key(A, 100), key(B, 100), key(B, 200), key(C, 200), key(C, 300), key(D, 300)

	ctx := context.Background()
	appends := func() (n [4]uint64) {
		for _, st := range srv.StatsAll() {
			n[st.Shard] = st.WalAppends
		}
		return n
	}
	// start sends a request that stays unanswered and returns once the logs it
	// writes to have taken one more append each.
	start := func(what string, logs []int, subs ...wire.Sub) chan error {
		t.Helper()
		want := appends()
		for _, s := range logs {
			want[s]++
		}
		cl, done := dialClient(t, addr, client.Options{}), make(chan error, 1)
		go func() {
			if len(subs) == 1 {
				_, err := cl.Put(ctx, subs[0].Key, subs[0].Value)
				done <- err
				return
			}
			_, err := cl.Atomic(ctx, subs)
			done <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); appends() != want; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: appends per shard %v, want %v", what, appends(), want)
			}
		}
		return done
	}
	put := func(key uint64, val string) wire.Sub {
		return wire.Sub{Kind: wire.SubPut, Key: key, Value: []byte(val)}
	}
	flush := func(whose string) chan error {
		t.Helper()
		select {
		case verdict := <-calls:
			return verdict
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never started", whose)
			return nil
		}
	}

	armed.Store(true)
	// A group on A parks A's flusher in the hook, so round k's share there waits
	// for a later cycle: the next call is B's, the one after that C's.
	preDone := start("the group on A", []int{A}, put(pre, "pre"))
	flushA := flush("A's flush of the group")
	roundK := start("round k", []int{A, B}, put(kA, "k"), put(kB, "k"))
	flushB := flush("B's flush of P_k")
	roundK1 := start("round k+1, round k in doubt", []int{B, C}, put(k1B, "k+1"), put(k1C, "k+1"))
	flush("C's flush of P_k+1") // held to the end

	flushA <- nil
	if err := <-preDone; err != nil {
		t.Fatalf("the group on A: %v", err)
	}
	flush("A's flush of P_k") <- &faultinject.InjectedDiskFault{Op: faultinject.DiskSync}
	flushB <- nil
	if err := <-roundK; !errors.Is(err, wire.ErrTxFault) {
		t.Fatalf("round k, a participant's flush failed: %v, want TX_FAULT", err)
	}
	flush("B's flush of P_k+1") <- nil

	// Round k is off the queue, round k+1 waits for C. Round k+2 takes the free
	// flight; the read-only ATOMIC sent once k+2's task set is closed runs in
	// the round after it, which takes no flight: its answer says k+2 is built.
	before := appends()
	cl, roundK2 := dialClient(t, addr, client.Options{}), make(chan error, 1)
	go func() {
		_, err := cl.Atomic(ctx, []wire.Sub{put(k2C, "k+2"), put(k2D, "k+2")})
		roundK2 <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.RoundStats().Rounds < 3; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("round k+2 never started: the coordinator waits for a flight round k gave back")
		}
	}
	if _, err := dialClient(t, addr, client.Options{}).Atomic(ctx, []wire.Sub{{Kind: wire.SubGet, Key: k2C}, {Kind: wire.SubGet, Key: k2D}}); err != nil {
		t.Fatalf("a read-only round behind round k+2: %v", err)
	}
	if after := appends(); after != before {
		t.Errorf("round k+2 logged on a participant of a faulted round in flight: appends per shard %v -> %v", before, after)
	}

	// The crash image: A's log is the group and P_k — cut the prepare away.
	image := t.TempDir()
	copyTree(t, cfg.DataDir, image)
	cutFrames(t, image, A, 1)
	cfg2 := cfg
	cfg2.DataDir, cfg2.DiskFaultHook = image, nil
	_, addr2 := startServer(t, cfg2)
	c2 := dialClient(t, addr2, client.Options{})
	if got, err := c2.Get(ctx, pre); err != nil || string(got) != "pre" {
		t.Errorf("the group in front of P_k: got %q, %v", got, err)
	}
	for _, k := range []uint64{kA, kB, k1B, k1C, k2C, k2D} {
		if got, err := c2.Get(ctx, k); !errors.Is(err, wire.ErrNotFound) {
			t.Errorf("key %d (shard %d) without A's P_k: got %q, %v; want NOT_FOUND — no round, on any log", k, srv.Shard(k), got, err)
		}
	}

	// C's flush returns: k+1 settles with k's fault, k+2 behind it was refused.
	letGo.Do(func() { close(quit) })
	for name, done := range map[string]chan error{"k+1": roundK1, "k+2": roundK2} {
		if err := <-done; !errors.Is(err, wire.ErrTxFault) {
			t.Errorf("round %s: %v, want TX_FAULT", name, err)
		}
	}
}

// TestCrossShardRecoveryRefusesUnmarkedPrepare boots logs whose prepare
// value is a bare record list, one prepare per task ([P_t1 P_t2][C_t1
// C_t2]): the layout before prepares listed their participants. Decided in
// the log or not, New refuses it with the one error that names the prepare
// layout, and leaves every file as it found it — the refusal truncates
// nothing — so a second New fails the same way. A data directory closed
// cleanly holds no log: its snapshot is the state, and it boots.
func TestCrossShardRecoveryRefusesUnmarkedPrepare(t *testing.T) {
	k0, k1, k2 := keyOnShard(0, 100), keyOnShard(0, 200), keyOnShard(0, 300)
	unmarked := func(xid, key uint64, val string) wal.Record {
		return wal.Record{Kind: wal.RecPrepare, Key: xid,
			Value: wal.AppendRecords(nil, []wal.Record{{Kind: wal.RecPut, Key: key, Value: []byte(val)}})}
	}
	decided := func(dataDir string) {
		writeShardLog(t, dataDir, 0,
			[]wal.Record{unmarked(1, k0, "t1"), unmarked(2, k1, "t2"), unmarked(3, k2, "t3")},
			[]wal.Record{{Kind: wal.RecCommit, Key: 1}}, []wal.Record{{Kind: wal.RecAbort, Key: 2}}, []wal.Record{{Kind: wal.RecCommit, Key: 3}},
			[]wal.Record{{Kind: wal.RecPut, Key: k0, Value: []byte("later group")}})
	}
	undecided := func(dataDir string) {
		writeShardLog(t, dataDir, 0, []wal.Record{unmarked(1, k0, "t1")})
		writeShardLog(t, dataDir, 1, []wal.Record{unmarked(1, keyOnShard(1, 100), "t1")}, []wal.Record{{Kind: wal.RecCommit, Key: 1}})
	}
	cfg := server.Config{
		Shards:     matrixShards,
		Durability: server.DurabilityGroup, SnapshotEvery: time.Hour,
	}

	for name, write := range map[string]func(string){"decided": decided, "undecided": undecided} {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.DataDir = t.TempDir()
			write(cfg.DataDir)
			before := readTree(t, cfg.DataDir)
			for boot := 1; boot <= 2; boot++ {
				_, err := server.New(cfg)
				if !errors.Is(err, wal.ErrPrepareLayout) ||
					!strings.Contains(err.Error(), "u32 0xFFFFFFFF | u8 version 1 | participants | records") {
					t.Fatalf("boot %d: New over an unmarked prepare: %v; want the error naming the prepare layout", boot, err)
				}
				if after := readTree(t, cfg.DataDir); !reflect.DeepEqual(after, before) {
					t.Fatalf("boot %d: the refused New changed the data directory: %d files before, %d after", boot, len(before), len(after))
				}
			}
		})
	}

	// Shard 0 closed cleanly, shard 1 holds a valid log, and only shard 2's
	// holds the unmarked prepare: the refusal comes after the first two
	// replayed, and must still write nothing — shard 0 keeps its marker, no
	// shard gains a segment — so once shard 2's log is gone, shard 0 starts
	// clean.
	t.Run("refused on the last shard", func(t *testing.T) {
		cfg := cfg
		cfg.DataDir = t.TempDir()
		k1 := keyOnShard(1, 100)
		writeShardLog(t, cfg.DataDir, 0, []wal.Record{{Kind: wal.RecPut, Key: k0, Value: []byte("snap")}})
		dir0 := filepath.Join(cfg.DataDir, "shard-0000")
		if err := wal.WriteSnapshot(dir0, 5, []wal.Entry{{Key: k0, Value: []byte("snap")}}); err != nil {
			t.Fatal(err)
		}
		if err := wal.MarkClean(dir0, 5); err != nil {
			t.Fatal(err)
		}
		writeShardLog(t, cfg.DataDir, 1, []wal.Record{{Kind: wal.RecPut, Key: k1, Value: []byte("logged")}})
		writeShardLog(t, cfg.DataDir, 2, []wal.Record{unmarked(1, keyOnShard(2, 100), "t1")})
		before := readTree(t, cfg.DataDir)
		for boot := 1; boot <= 2; boot++ {
			if _, err := server.New(cfg); !errors.Is(err, wal.ErrPrepareLayout) {
				t.Fatalf("boot %d: New over shard 2's unmarked prepare: %v; want %v", boot, err, wal.ErrPrepareLayout)
			}
			if after := readTree(t, cfg.DataDir); !reflect.DeepEqual(after, before) {
				t.Fatalf("boot %d: the refused New changed the data directory:\nbefore %v\nafter  %v", boot, fileNames(before), fileNames(after))
			}
		}
		segs, _ := filepath.Glob(filepath.Join(cfg.DataDir, "shard-0002", "*.seg"))
		for _, seg := range segs {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
		srv, addr := startServer(t, cfg)
		if rst := srv.Recovery()[0]; !rst.CleanStart || rst.SnapshotKeys != 1 {
			t.Errorf("shard 0 recovery %+v; want a clean start from its 1-key snapshot", rst)
		}
		c := dialClient(t, addr, client.Options{})
		for key, want := range map[uint64]string{k0: "snap", k1: "logged"} {
			if got, err := c.Get(context.Background(), key); err != nil || string(got) != want {
				t.Errorf("key %d: got %q, %v; want %q", key, got, err, want)
			}
		}
	})

	t.Run("closed cleanly", func(t *testing.T) {
		cfg := cfg
		cfg.DataDir = t.TempDir()
		decided(cfg.DataDir)
		// The drain of the binary that wrote the log: snapshot, then the
		// clean-shutdown marker, which removes every segment.
		dir := filepath.Join(cfg.DataDir, "shard-0000")
		if err := wal.WriteSnapshot(dir, 5, []wal.Entry{{Key: k0, Value: []byte("later group")}, {Key: k2, Value: []byte("t3")}}); err != nil {
			t.Fatal(err)
		}
		if err := wal.MarkClean(dir, 5); err != nil {
			t.Fatal(err)
		}
		srv, addr := startServer(t, cfg)
		if rst := srv.Recovery()[0]; !rst.CleanStart || rst.SnapshotKeys != 2 {
			t.Errorf("shard 0 recovery %+v; want a clean start from a 2-key snapshot", rst)
		}
		c := dialClient(t, addr, client.Options{})
		ctx := context.Background()
		for key, want := range map[uint64]string{k0: "later group", k2: "t3"} {
			if got, err := c.Get(ctx, key); err != nil || string(got) != want {
				t.Errorf("key %d: got %q, %v; want %q", key, got, err, want)
			}
		}
		if got, err := c.Get(ctx, k1); !errors.Is(err, wire.ErrNotFound) {
			t.Errorf("key %d: got %q, %v; want NOT_FOUND", k1, got, err)
		}
	})
}

// readTree maps every file under root (by relative path) to its bytes.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, root)] = b
		return err
	})
	if err != nil {
		t.Fatalf("read %s: %v", root, err)
	}
	return files
}

// fileNames lists a readTree map's paths, sorted.
func fileNames(tree map[string][]byte) []string {
	names := make([]string, 0, len(tree))
	for name := range tree {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
