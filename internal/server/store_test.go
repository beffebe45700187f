package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"votm"
	"votm/enc"
	"votm/wire"
)

// The helpers below run ONE kernel verb in its own plain transaction
// (View.Atomic, not a group: they leave the group counters alone): how tests
// seed a shard and read it back without going through an executor.

// testVerb reserves one slot for (key, val), runs fn in its own transaction
// and settles.
func (sh *shard) testVerb(ctx context.Context, th *votm.Thread, key uint64, val []byte, fn func(tx votm.Tx, fx *effects, si int)) error {
	var fx effects
	si := fx.want(sh, key, len(val))
	if err := sh.reserve(&fx); err != nil {
		return err
	}
	err := sh.view.Atomic(ctx, th, func(tx votm.Tx) error {
		fx.begin()
		fn(tx, &fx, si)
		return nil
	})
	sh.settle(&fx, err == nil)
	return err
}

func (sh *shard) testGet(ctx context.Context, th *votm.Thread, key uint64) (val []byte, found bool, err error) {
	err = sh.view.AtomicRead(ctx, th, func(tx votm.Tx) error {
		val, found = sh.get(tx, key, nil)
		return nil
	})
	return val, found, err
}

// testBuckets is the size in words of sh's index directory, which follows the
// shard's peak key count rather than its live keys. NewDir(k) is 0 exactly
// when k keys fit the current directory, and bucket counts are powers of two.
func (sh *shard) testBuckets() int {
	b := 1
	for sh.idx.NewDir(2*b) == 0 {
		b *= 2
	}
	return b
}

func (sh *shard) testPut(ctx context.Context, th *votm.Thread, key uint64, val []byte) (created bool, err error) {
	err = sh.testVerb(ctx, th, key, val, func(tx votm.Tx, fx *effects, si int) {
		created = sh.put(tx, fx, si, key, val)
	})
	return created, err
}

func (sh *shard) testDelete(ctx context.Context, th *votm.Thread, key uint64) (found bool, err error) {
	err = sh.testVerb(ctx, th, key, nil, func(tx votm.Tx, fx *effects, si int) {
		found = sh.del(tx, fx, key)
	})
	return found, err
}

func (sh *shard) testCAS(ctx context.Context, th *votm.Thread, key uint64, expect, val []byte) (status wire.Status, cur []byte, err error) {
	err = sh.testVerb(ctx, th, key, val, func(tx votm.Tx, fx *effects, si int) {
		status, cur = sh.cas(tx, fx, si, key, expect, val, nil)
	})
	return status, cur, err
}

// growthConfig is a server whose shards start at 1 Ki words, so a few hundred
// keys cross several Brk boundaries (growQuantum each) in milliseconds.
func growthConfig(shards int) Config {
	return Config{Shards: shards, ShardWords: 1 << 10, WorkersPerShard: 1, SnapshotEvery: time.Hour}
}

// growthValue is key's 64..127-byte value for the growth tests; gen varies it
// across overwrites.
func growthValue(key uint64, gen byte) []byte {
	val := bytes.Repeat([]byte{byte(key), gen}, 32+int(key%32))
	binary.LittleEndian.PutUint64(val, key)
	return val
}

// TestRestartPastInitialHeap grows a durable shard to many times its initial
// heap through the serving path, then restarts it both ways — from a crash
// image (replay of the whole log) and after a clean drain (snapshot restore) —
// and checks that either comes up and serves every key byte for byte. Redo
// used to allocate index nodes without growing the view, so neither start
// survived the first Brk boundary.
func TestRestartPastInitialHeap(t *testing.T) {
	cfg := growthConfig(1)
	cfg.Durability, cfg.DataDir = DurabilityGroup, t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := (*s.shards[0].subs.Load())[0]
	c := newTestConn(s, 64)
	w := newGroupWorker(s, sh, th)
	defer w.close()

	const n = 3000
	want := make(map[uint64][]byte, n)
	var logged uint64
	run := func(batch []task) {
		t.Helper()
		w.run(batch)
		for id, r := range collect(t, c, len(batch)) {
			if r.status != wire.StatusOK {
				t.Fatalf("request %d: status %v (%s)", id, r.status, r.value)
			}
		}
		logged += uint64(len(batch))
	}
	var batch []task
	for k := uint64(0); k < n; k++ {
		want[k] = growthValue(k, 0)
		batch = append(batch, mkTask(s, c, wire.OpPut, uint32(len(batch)+1), k, want[k], nil))
		if len(batch) == 50 || k == n-1 {
			run(batch)
			batch = batch[:0]
		}
	}
	// Overwrites and deletes, so replay also frees on a grown heap.
	for k := uint64(0); k < n; k += 7 {
		if k%2 == 0 {
			want[k] = growthValue(k, 1)
			batch = append(batch, mkTask(s, c, wire.OpPut, uint32(len(batch)+1), k, want[k], nil))
		} else {
			delete(want, k)
			batch = append(batch, mkTask(s, c, wire.OpDelete, uint32(len(batch)+1), k, nil, nil))
		}
		if len(batch) == 50 {
			run(batch)
			batch = batch[:0]
		}
	}
	run(batch)
	if size := sh.view.Size(); size < 4*cfg.ShardWords {
		t.Fatalf("heap is %d words, want >= %d: the test never crossed a growth boundary", size, 4*cfg.ShardWords)
	}

	verify := func(name string, cfg Config, check func(RecoveryStats)) {
		t.Helper()
		re, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shutdownServer(t, re)
		check(re.Recovery()[0])
		rth := re.rt.RegisterThread()
		defer rth.Release()
		rsh := (*re.shards[0].subs.Load())[0]
		for k := uint64(0); k < n; k++ {
			val, found, err := rsh.testGet(context.Background(), rth, k)
			if err != nil || found != (want[k] != nil) || !bytes.Equal(val, want[k]) {
				t.Fatalf("%s: key %d = %x found=%v err=%v, want %x", name, k, val, found, err, want[k])
			}
		}
		if got := rsh.keys.Load(); got != int64(len(want)) {
			t.Errorf("%s: key counter = %d, want %d", name, got, len(want))
		}
		if a, b := rsh.view.AllocatedWords(), sh.view.AllocatedWords(); a != b {
			t.Errorf("%s: %d words allocated, the live shard holds %d", name, a, b)
		}
	}

	crashed := cfg
	crashed.DataDir = t.TempDir()
	copyTree(t, cfg.DataDir, crashed.DataDir)
	verify("crash restart", crashed, func(r RecoveryStats) {
		if r.CleanStart || r.SnapshotKeys != 0 || r.Replayed != logged {
			t.Errorf("crash restart: %+v, want a replay of %d records and no snapshot", r, logged)
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.close()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	verify("clean restart", cfg, func(r RecoveryStats) {
		if !r.CleanStart || r.SnapshotKeys != len(want) || r.Replayed != 0 {
			t.Errorf("clean restart: %+v, want a clean start from a %d-key snapshot", r, len(want))
		}
	})
}

// TestValueSizeChurnStrandsNoMemory is the fragmentation row of
// docs/ALGORITHMS.md's limits table. A shard that starts at 1 Ki words is
// preloaded with 64-byte values and then, round after round, takes every key
// through ≈ 200-, 64-, ≈ 300- and 64-byte values on the group path, with
// deletes mixed in. The two large sizes step down a word per round, so each
// pass frees blocks of a size no later pass asks for: the allocator's
// exact-size bins fill with blocks that can only be reused by address. It
// must merge them back before it reports out-of-memory: the allocated words
// equal the map oracle's after every round, and the view, once it has grown
// to hold the first and largest round, stops growing — no Brk in the second
// half of the rounds.
func TestValueSizeChurnStrandsNoMemory(t *testing.T) {
	s, err := New(growthConfig(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := (*s.shards[0].subs.Load())[0]
	c := newTestConn(s, 64)
	w := newGroupWorker(s, sh, th)
	defer w.close()

	const keys, rounds = 600, 12
	empty := sh.view.AllocatedWords() - sh.testBuckets()
	oracle := make(map[uint64]int, keys) // key -> value length
	value := func(k uint64, n int) []byte { return bytes.Repeat([]byte{byte(k)}, n) }
	var batch []task
	run := func() {
		t.Helper()
		w.run(batch)
		for id, r := range collect(t, c, len(batch)) {
			if r.status != wire.StatusOK && r.status != wire.StatusNotFound {
				t.Fatalf("request %d: status %v (%s)", id, r.status, r.value)
			}
		}
		batch = batch[:0]
	}
	// pass puts every key at n bytes, except that every seventh key (a
	// different seventh each pass) is deleted and left to the next pass.
	pass := func(n, salt int) {
		t.Helper()
		for k := uint64(0); k < keys; k++ {
			if (int(k)+salt)%7 == 0 {
				delete(oracle, k)
				batch = append(batch, mkTask(s, c, wire.OpDelete, uint32(len(batch)+1), k, nil, nil))
			} else {
				oracle[k] = n
				batch = append(batch, mkTask(s, c, wire.OpPut, uint32(len(batch)+1), k, value(k, n), nil))
			}
			if len(batch) == 32 {
				run()
			}
		}
		run()
	}
	pass(64, 1) // the preload; its deletes find nothing and answer NOT_FOUND
	sizes := make([]int, 0, rounds)
	for round := 0; round < rounds; round++ {
		for i, n := range []int{200 - 8*round, 64, 304 - 8*round, 64} {
			pass(n, 4*round+i)
		}
		want := empty + sh.testBuckets()
		for k, n := range oracle {
			want += enc.BlobWords(n) + sh.idx.NodeWords(k)
		}
		if got := sh.view.AllocatedWords(); got != want {
			t.Fatalf("round %d: %d words allocated, the oracle's %d keys need %d", round, got, len(oracle), want)
		}
		sizes = append(sizes, sh.view.Size())
	}
	t.Logf("view words after each round: %v", sizes)
	if sizes[0] <= growthConfig(1).ShardWords {
		t.Fatalf("heap is %d words: the test never crossed a growth boundary", sizes[0])
	}
	if sizes[rounds-1] != sizes[rounds/2-1] {
		t.Errorf("the view kept growing under a steady key set: sizes per round %v", sizes)
	}
	for k, n := range oracle {
		val, found, err := sh.testGet(context.Background(), th, k)
		if err != nil || !found || !bytes.Equal(val, value(k, n)) {
			t.Fatalf("key %d = %d bytes found=%v err=%v, want %d bytes", k, len(val), found, err, n)
		}
	}
}

// TestAtomicCreatesKeysPastInitialHeap creates keys through ATOMIC batches
// only — SubPut and SubAdd, the two subs that link a node — on the group path
// (same shard) and the round path (three shards), far past the initial heap:
// no batch may answer INTERNAL and every key must exist. The ATOMIC
// interpreter used to allocate nodes without growing the view.
func TestAtomicCreatesKeysPastInitialHeap(t *testing.T) {
	const perShard = 1500
	f := newRoundFixture(t, growthConfig(3), perShard)
	w := newGroupWorker(f.s, f.shards[0], f.th)
	defer w.close()
	rc := newTestCoordinator(t, f.s)
	put := func(key uint64) wire.Sub { return wire.Sub{Kind: wire.SubPut, Key: key, Value: growthValue(key, 0)} }
	add := func(key uint64) wire.Sub { return wire.Sub{Kind: wire.SubAdd, Key: key, Delta: key} }

	answered := func(name string, n int) {
		t.Helper()
		for id, r := range collect(t, f.c, n) {
			if r.status != wire.StatusOK {
				t.Fatalf("%s: request %d: status %v (%s)", name, id, r.status, r.value)
			}
		}
	}
	// Group path: the first half of shard 0's keys, a PUT and an ADD per batch,
	// eight batches per group.
	var batch []task
	for j := 0; j < perShard/2; j += 2 {
		batch = append(batch, mkAtomic(f.s, f.c, uint32(len(batch)+1), put(f.keys[0][j]), add(f.keys[0][j+1])))
		if len(batch) == 8 || j+2 >= perShard/2 {
			w.run(batch)
			answered("group", len(batch))
			batch = batch[:0]
		}
	}
	// Round path: the second half of every shard's keys, four spanning batches
	// per round.
	for j := perShard / 2; j < perShard; j++ {
		batch = append(batch, queued(f.s, f.c, f.c.atomicReq(uint32(len(batch)+1), put(f.keys[0][j]), add(f.keys[1][j]), put(f.keys[2][j]))))
		if len(batch) == 4 || j == perShard-1 {
			rc.roundOf(batch...)
			answered("round", len(batch))
			batch = batch[:0]
		}
	}

	for i, wantKeys := range [3]int64{perShard, perShard / 2, perShard / 2} {
		sh := f.shards[i]
		if got := sh.keys.Load(); got != wantKeys {
			t.Errorf("shard %d: key counter = %d, want %d", i, got, wantKeys)
		}
		if size := sh.view.Size(); size < 4*f.s.cfg.ShardWords {
			t.Errorf("shard %d: heap is %d words: never crossed a growth boundary", i, size)
		}
	}
	for j := 0; j < perShard; j++ {
		key := f.keys[0][j]
		wantVal := growthValue(key, 0)
		if j < perShard/2 && j%2 == 1 {
			wantVal = binary.LittleEndian.AppendUint64(nil, key)
		}
		if val, found, err := f.shards[0].testGet(context.Background(), f.th, key); err != nil || !found || !bytes.Equal(val, wantVal) {
			t.Fatalf("shard 0 key %d = %x found=%v err=%v, want %x", key, val, found, err, wantVal)
		}
	}
	for j := perShard / 2; j < perShard; j++ {
		if sum, found := f.counter(t, 1, f.keys[1][j]); !found || sum != f.keys[1][j] {
			t.Fatalf("shard 1 counter %d = %d found=%v", f.keys[1][j], sum, found)
		}
	}
}

// TestIndexDirectoryGrowsOnEveryPath is the directory-growth row of
// docs/ALGORITHMS.md's limits table. Shards of 1 Ki words start with a
// 64-bucket directory; keys then arrive through write groups (shard 0),
// rounds of spanning ATOMICs (all three shards), a crash-copy restart that
// replays the whole log, and a split that hands half a grown shard to a child.
// Each path must grow the directory — shard 0 through at least three
// doublings — so no shard ends with more keys than buckets, and no lookup may
// miss a live key.
func TestIndexDirectoryGrowsOnEveryPath(t *testing.T) {
	const perShard = 700
	cfg := growthConfig(3)
	cfg.Durability, cfg.DataDir = DurabilityGroup, t.TempDir()
	f := newRoundFixture(t, cfg, perShard)
	w := newGroupWorker(f.s, f.shards[0], f.th)
	defer w.close()
	rc := newTestCoordinator(t, f.s)
	initial := f.shards[0].testBuckets()

	answered := func(name string, n int) {
		t.Helper()
		for id, r := range collect(t, f.c, n) {
			if r.status != wire.StatusOK {
				t.Fatalf("%s: request %d: status %v (%s)", name, id, r.status, r.value)
			}
		}
	}
	var batch []task
	for j := 0; j < perShard/2; j++ { // groups of 32 PUTs on shard 0
		key := f.keys[0][j]
		batch = append(batch, mkTask(f.s, f.c, wire.OpPut, uint32(len(batch)+1), key, growthValue(key, 0), nil))
		if len(batch) == 32 || j == perShard/2-1 {
			w.run(batch)
			answered("group", len(batch))
			batch = batch[:0]
		}
	}
	put := func(i, j int) wire.Sub {
		return wire.Sub{Kind: wire.SubPut, Key: f.keys[i][j], Value: growthValue(f.keys[i][j], 0)}
	}
	for j := perShard / 2; j < perShard; j++ { // rounds of four spanning ATOMICs
		batch = append(batch, queued(f.s, f.c, f.c.atomicReq(uint32(len(batch)+1), put(0, j), put(1, j), put(2, j))))
		if len(batch) == 4 || j == perShard-1 {
			rc.roundOf(batch...)
			answered("round", len(batch))
			batch = batch[:0]
		}
	}

	// verify: every key of shards serves, and no shard has more keys than
	// buckets.
	verify := func(name string, shards []*shard, th *votm.Thread, keys func(i int) []uint64) {
		t.Helper()
		for i, sh := range shards {
			for _, key := range keys(i) {
				if val, found, err := sh.testGet(context.Background(), th, key); err != nil || !found || !bytes.Equal(val, growthValue(key, 0)) {
					t.Fatalf("%s: shard %d key %d = %x found=%v err=%v", name, i, key, val, found, err)
				}
			}
			if n, b := sh.keys.Load(), sh.testBuckets(); n != int64(len(keys(i))) || n > int64(b) {
				t.Errorf("%s: shard %d holds %d keys (want %d) in %d buckets", name, i, n, len(keys(i)), b)
			}
		}
	}
	live := func(i int) []uint64 { // shards 1 and 2 took only the rounds' keys
		if i == 0 {
			return f.keys[0]
		}
		return f.keys[i][perShard/2:]
	}
	verify("executed", f.shards[:], f.th, live)
	if b := f.shards[0].testBuckets(); b < 8*initial {
		t.Errorf("shard 0 grew from %d to %d buckets: fewer than three doublings", initial, b)
	}
	re := f.bootCopy(t, nil)
	verify("replayed", re.shards[:], re.th, live)

	// A split: the child is populated through applyRecords, the parent sheds
	// half its keys and keeps its directory.
	s, err := New(growthConfig(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	g, root := s.shards[0], (*s.shards[0].subs.Load())[0]
	sw := newGroupWorker(s, root, f.th)
	defer sw.close()
	c := newTestConn(s, 64)
	for k := uint64(0); k < perShard; k++ {
		batch = append(batch, mkTask(s, c, wire.OpPut, uint32(len(batch)+1), k, growthValue(k, 0), nil))
		if len(batch) == 32 || k == perShard-1 {
			sw.run(batch)
			collect(t, c, len(batch))
			batch = batch[:0]
		}
	}
	if err := s.splitShard(g, root); err != nil {
		t.Fatalf("split: %v", err)
	}
	subs := *g.subs.Load()
	owned := make([][]uint64, len(subs))
	for k := uint64(0); k < perShard; k++ {
		i := slices.Index(subs, g.route(k))
		owned[i] = append(owned[i], k)
	}
	verify("split", subs, f.th, func(i int) []uint64 { return owned[i] })
}

// kvOracle is the differential test's reference: a plain Go map that shares
// no code with the server.
type kvOracle map[uint64][]byte

// atomic applies subs all-or-nothing the way the protocol defines an ATOMIC:
// ok is false when an ADD meets a value that is not 8 bytes, and then nothing
// changed.
func (o kvOracle) atomic(subs []wire.Sub) (results []wire.SubResult, ok bool) {
	undo := make(map[uint64][]byte) // first-seen prior value per key; nil = absent
	note := func(key uint64) {
		if _, seen := undo[key]; !seen {
			undo[key] = o[key]
		}
	}
	for _, sub := range subs {
		r := wire.SubResult{Kind: sub.Kind, Status: wire.StatusOK}
		cur, found := o[sub.Key]
		switch sub.Kind {
		case wire.SubGet:
			r.Value = cur
		case wire.SubPut:
			note(sub.Key)
			o[sub.Key] = sub.Value
		case wire.SubDelete:
			note(sub.Key)
			delete(o, sub.Key)
		case wire.SubAdd:
			if found && len(cur) != 8 {
				for key, prior := range undo {
					if prior == nil {
						delete(o, key)
					} else {
						o[key] = prior
					}
				}
				return nil, false
			}
			note(sub.Key)
			if found {
				r.Sum = binary.LittleEndian.Uint64(cur)
			}
			r.Sum += sub.Delta
			o[sub.Key] = binary.LittleEndian.AppendUint64(nil, r.Sum)
		}
		if !found && (sub.Kind == wire.SubGet || sub.Kind == wire.SubDelete) {
			r.Status = wire.StatusNotFound
		}
		results = append(results, r)
	}
	return results, true
}

// TestStoreKernelDifferential drives one seeded random stream of get / put /
// delete / cas / add through every way state reaches a shard — groups of
// random size on a shard worker (point ops and same-shard ATOMIC members
// mixed), rounds of spanning ATOMICs on a coordinator, and, on a second
// server booted from the first one's log, the redo path — and holds each to a
// map oracle: every answer, the final state, the key counters, and the
// allocators (executed and replayed shards must hold the same words: no path
// leaks a reservation, refused batches and NOT_FOUND / CAS_MISMATCH ops
// included).
func TestStoreKernelDifferential(t *testing.T) {
	const perShard, steps = 12, 400
	cfg := growthConfig(3)
	cfg.WorkersPerShard = 2 // groups run as STM transactions, not under the Q = 1 lock
	cfg.Durability, cfg.DataDir = DurabilityGroup, t.TempDir()
	f := newRoundFixture(t, cfg, perShard)
	rng := rand.New(rand.NewSource(20))
	oracle := kvOracle{}
	var workers [3]*groupWorker
	for i := range workers {
		workers[i] = newGroupWorker(f.s, f.shards[i], f.th)
		defer workers[i].close()
	}
	rc := newTestCoordinator(t, f.s)

	// Values are empty, 8 bytes (so an ADD can land on a PUT's value) or up to
	// 600 bytes (so 12 keys per shard outgrow the 1 Ki-word heap).
	value := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return []byte{}
		case 1:
			return binary.LittleEndian.AppendUint64(nil, rng.Uint64())
		}
		val := make([]byte, 1+rng.Intn(600))
		rng.Read(val)
		return val
	}
	sub := func(key uint64) wire.Sub {
		switch rng.Intn(5) {
		case 0:
			return wire.Sub{Kind: wire.SubGet, Key: key}
		case 1, 2:
			return wire.Sub{Kind: wire.SubPut, Key: key, Value: value()}
		case 3:
			return wire.Sub{Kind: wire.SubDelete, Key: key}
		}
		return wire.Sub{Kind: wire.SubAdd, Key: key, Delta: uint64(rng.Intn(100))}
	}
	// checkAtomic holds one ATOMIC's answer to the oracle, which applies it now.
	var refused int
	checkAtomic := func(what string, subs []wire.Sub, got gotResp) {
		t.Helper()
		want, ok := oracle.atomic(subs)
		if !ok {
			refused++
			if got.status != wire.StatusBadRequest {
				t.Fatalf("%s: status %v, want BAD_REQUEST for an ADD on a non-counter", what, got.status)
			}
			return
		}
		if got.status != wire.StatusOK || len(got.subs) != len(want) {
			t.Fatalf("%s: status %v (%s), %d results; want OK and %d", what, got.status, got.value, len(got.subs), len(want))
		}
		for i, w := range want {
			if g := got.subs[i]; g.Status != w.Status || g.Sum != w.Sum || !bytes.Equal(g.Value, w.Value) {
				t.Fatalf("%s: sub %d (%+v) = %+v, want %+v", what, i, subs[i], g, w)
			}
		}
	}

	for step := 0; step < steps; step++ {
		if rng.Intn(4) == 0 {
			// A round of 1..3 ATOMICs spanning at least two shards.
			var tasks []task
			var all [][]wire.Sub
			for n := 1 + rng.Intn(3); len(tasks) < n; {
				a, b := rng.Intn(3), rng.Intn(3)
				if a == b {
					continue
				}
				subs := []wire.Sub{sub(f.keys[a][rng.Intn(perShard)]), sub(f.keys[b][rng.Intn(perShard)])}
				for extra := rng.Intn(3); extra > 0; extra-- {
					subs = append(subs, sub(f.keys[rng.Intn(3)][rng.Intn(perShard)]))
				}
				all = append(all, subs)
				tasks = append(tasks, queued(f.s, f.c, f.c.atomicReq(uint32(len(tasks)+1), subs...)))
			}
			rc.roundOf(tasks...)
			got := collect(t, f.c, len(tasks))
			for i, subs := range all {
				checkAtomic(fmt.Sprintf("step %d round task %d", step, i), subs, got[uint32(i+1)])
			}
			continue
		}
		// A group of 1..12 members on one shard.
		si := rng.Intn(3)
		keys := f.keys[si]
		n := 1 + rng.Intn(12)
		batch := make([]task, 0, n)
		reqs := make([]*wire.Request, 0, n) // the pooled requests are released once answered: keep copies
		for len(batch) < n {
			id, key := uint32(len(batch)+1), keys[rng.Intn(perShard)]
			req := &wire.Request{ID: id, Key: key}
			switch rng.Intn(6) {
			case 0:
				req.Op = wire.OpGet
			case 1, 2:
				req.Op, req.Value = wire.OpPut, value()
			case 3:
				req.Op = wire.OpDelete
			case 4:
				// Half the expectations are the current value, so a CAS matches.
				req.Op, req.Value, req.OldValue = wire.OpCAS, value(), value()
				if cur, found := oracle[key]; found && rng.Intn(2) == 0 {
					req.OldValue = cur
				}
			case 5:
				req.Op = wire.OpAtomic
				for k := 1 + rng.Intn(4); k > 0; k-- {
					req.Subs = append(req.Subs, sub(keys[rng.Intn(perShard)]))
				}
			}
			reqs = append(reqs, req)
			if req.Op == wire.OpAtomic {
				batch = append(batch, mkAtomic(f.s, f.c, id, req.Subs...))
			} else {
				batch = append(batch, mkTask(f.s, f.c, req.Op, id, key, req.Value, req.OldValue))
			}
		}
		workers[si].run(batch)
		got := collect(t, f.c, n)
		for _, req := range reqs {
			what := fmt.Sprintf("step %d group member %d (%v key %d)", step, req.ID, req.Op, req.Key)
			g := got[req.ID]
			if req.Op == wire.OpAtomic {
				checkAtomic(what, req.Subs, g)
				continue
			}
			cur, found := oracle[req.Key]
			wantStatus, wantValue, wantCreated := wire.StatusOK, []byte(nil), false
			switch req.Op {
			case wire.OpGet:
				wantValue = cur
			case wire.OpPut:
				wantCreated = !found
				oracle[req.Key] = req.Value
			case wire.OpDelete:
				delete(oracle, req.Key)
			case wire.OpCAS:
				if found && !bytes.Equal(cur, req.OldValue) {
					wantStatus, wantValue = wire.StatusCASMismatch, cur
				} else if found {
					oracle[req.Key] = req.Value
				}
			}
			if !found && req.Op != wire.OpPut {
				wantStatus = wire.StatusNotFound
			}
			if g.status != wantStatus || g.created != wantCreated || !bytes.Equal(g.value, wantValue) {
				t.Fatalf("%s: status %v created %v value %x; want %v %v %x", what, g.status, g.created, g.value, wantStatus, wantCreated, wantValue)
			}
		}
	}
	if refused == 0 {
		t.Error("the stream never produced a refused batch")
	}

	// Final state, executed and replayed.
	re := f.bootCopy(t, nil)
	for name, fx := range map[string]*roundFixture{"executed": f, "replayed": re} {
		var total int64
		for i, sh := range fx.shards {
			for _, key := range f.keys[i] {
				val, found, err := sh.testGet(context.Background(), fx.th, key)
				if want, live := oracle[key]; err != nil || found != live || !bytes.Equal(val, want) {
					t.Errorf("%s: key %d = %x found=%v err=%v, want %x found=%v", name, key, val, found, err, want, live)
				}
			}
			total += sh.keys.Load()
			if a, b := sh.view.AllocatedWords(), f.shards[i].view.AllocatedWords(); a != b {
				t.Errorf("%s: shard %d holds %d allocated words, the executed shard %d", name, i, a, b)
			}
			if a, b := sh.testBuckets(), f.shards[i].testBuckets(); a != b {
				t.Errorf("%s: shard %d has %d index buckets, the executed shard %d", name, i, a, b)
			}
		}
		if total != int64(len(oracle)) {
			t.Errorf("%s: key counters sum to %d, the oracle holds %d keys", name, total, len(oracle))
		}
	}
	// And the executed shards hold exactly what a shard that was only ever
	// told the final state holds: nothing leaked along the way. The index
	// directory follows the peak key count, not the live one, but 12 keys a
	// shard never outgrow the first one, so every side compared here holds
	// the same directory (checked) and the word counts compare like for like.
	fresh := newRoundFixture(t, growthConfig(3), 1)
	for i, sh := range fresh.shards {
		for _, key := range f.keys[i] {
			if val, live := oracle[key]; live {
				if _, err := sh.testPut(context.Background(), fresh.th, key, val); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a, b := f.shards[i].view.AllocatedWords(), sh.view.AllocatedWords(); a != b {
			t.Errorf("shard %d: %d words allocated after the stream, %d on a shard holding the same keys", i, a, b)
		}
		if a, b := f.shards[i].testBuckets(), sh.testBuckets(); a != b {
			t.Errorf("shard %d: %d index buckets after the stream, %d on a shard holding the same keys", i, a, b)
		}
	}
	t.Logf("%d steps, %d refused batches, %d live keys, %d rounds", steps, refused, len(oracle), rc.nRounds.Load())
}

// TestQueueHighWaterWindow drives the windowed high-water rotation with
// explicit window indices: the mark decays two windows after the load does
// (current + previous are reported), while the lifetime mark never decays —
// the regression for the forever-monotonic STATS gauge.
func TestQueueHighWaterWindow(t *testing.T) {
	sh := &shard{}
	recent := func() uint64 { return max(sh.queueHWCur.Load(), sh.queueHWPrev.Load()) }

	sh.rotateHW(100)
	maxInto(&sh.queueHW, 9)
	maxInto(&sh.queueHWCur, 9)
	if got := recent(); got != 9 {
		t.Fatalf("same window: recent = %d, want 9", got)
	}

	// Next window: the finished window's mark is still reported...
	sh.rotateHW(101)
	if got := recent(); got != 9 {
		t.Fatalf("one window later: recent = %d, want 9 (previous window counts)", got)
	}
	maxInto(&sh.queueHWCur, 3)
	if got := recent(); got != 9 {
		t.Fatalf("recent = %d, want 9 (max of windows)", got)
	}

	// ...and a window with no higher load lets it decay.
	sh.rotateHW(102)
	if got := recent(); got != 3 {
		t.Fatalf("two windows later: recent = %d, want decayed to 3", got)
	}

	// An idle gap (several windows with no traffic) reports zero: nothing
	// recent happened, regardless of how bad the spike once was.
	sh.rotateHW(110)
	if got := recent(); got != 0 {
		t.Fatalf("after idle gap: recent = %d, want 0", got)
	}
	if got := sh.queueHW.Load(); got != 9 {
		t.Fatalf("lifetime mark = %d, want 9 (never decays)", got)
	}

	// Stale rotation attempts (an older window index racing in) must not
	// clobber the current window.
	maxInto(&sh.queueHWCur, 5)
	sh.rotateHW(109)
	if got := recent(); got != 5 {
		t.Fatalf("stale rotate clobbered the window: recent = %d, want 5", got)
	}
}
