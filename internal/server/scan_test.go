package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm/client"
	"votm/internal/faultinject"
	"votm/wire"
)

// scanAll drains a Scanner, failing the test on error.
func scanAll(t *testing.T, ctx context.Context, sc *client.Scanner) []wire.ScanEntry {
	t.Helper()
	var out []wire.ScanEntry
	for sc.Next(ctx) {
		out = append(out, sc.Entry())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestScanBasic covers the SCAN surface over real TCP: global ordering
// across hash-placed shards, half-open bounds, pagination with every page
// size shape, the empty range, and the scan meters in STATS.
func TestScanBasic(t *testing.T) {
	s, err := New(Config{Shards: 4, ShardWords: 1 << 14, WorkersPerShard: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln := listenLocal(t)
	go func() { _ = s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Sparse keys so bound arithmetic can't accidentally pass: 1, 4, 7, ...
	const n = 200
	keyAt := func(i int) uint64 { return uint64(3*i + 1) }
	for i := 0; i < n; i++ {
		if _, err := c.Put(ctx, keyAt(i), []byte(fmt.Sprintf("v-%d", keyAt(i)))); err != nil {
			t.Fatalf("put %d: %v", keyAt(i), err)
		}
	}

	check := func(name string, got []wire.ScanEntry, wantFirst, wantLast uint64, wantN int) {
		t.Helper()
		if len(got) != wantN {
			t.Fatalf("%s: %d entries, want %d", name, len(got), wantN)
		}
		if wantN == 0 {
			return
		}
		if got[0].Key != wantFirst || got[wantN-1].Key != wantLast {
			t.Fatalf("%s: spans [%d, %d], want [%d, %d]", name, got[0].Key, got[wantN-1].Key, wantFirst, wantLast)
		}
		for i, e := range got {
			if i > 0 && e.Key <= got[i-1].Key {
				t.Fatalf("%s: keys not strictly increasing at %d: %d after %d", name, i, e.Key, got[i-1].Key)
			}
			if want := fmt.Sprintf("v-%d", e.Key); string(e.Value) != want {
				t.Fatalf("%s: key %d value %q, want %q", name, e.Key, e.Value, want)
			}
		}
	}

	// Whole keyspace, several page sizes (1 = a round trip per key; 1000 =
	// one page; 7 = ragged last page).
	for _, page := range []int{1, 7, 64, 1000} {
		got := scanAll(t, ctx, c.Scan(0, 1<<62, client.ScanOptions{PageSize: page}))
		check(fmt.Sprintf("full/page=%d", page), got, keyAt(0), keyAt(n-1), n)
	}

	// Half-open interior bounds: [keyAt(10), keyAt(50)) excludes keyAt(50)
	// itself but includes keyAt(10).
	got := scanAll(t, ctx, c.Scan(keyAt(10), keyAt(50), client.ScanOptions{PageSize: 8}))
	check("interior", got, keyAt(10), keyAt(49), 40)

	// Bounds falling between keys round inward.
	got = scanAll(t, ctx, c.Scan(keyAt(10)+1, keyAt(50)+1, client.ScanOptions{PageSize: 8}))
	check("between-keys", got, keyAt(11), keyAt(50), 40)

	// A valid but vacant range: clean empty result.
	got = scanAll(t, ctx, c.Scan(1<<40, 1<<41, client.ScanOptions{}))
	check("vacant", got, 0, 0, 0)

	// Deleted keys disappear from scans.
	if err := c.Delete(ctx, keyAt(20)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	got = scanAll(t, ctx, c.Scan(keyAt(19), keyAt(22), client.ScanOptions{}))
	check("post-delete", got, keyAt(19), keyAt(21), 2)

	// The scan meters: every page one coordinated scan, every returned
	// entry one contributed key (this server saw only this test's scans).
	stats, err := c.Stats(ctx, wire.AllShards)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var scans, scanned uint64
	for _, st := range stats {
		scans += st.Scans
		scanned += st.ScannedKeys
	}
	if scans == 0 {
		t.Fatalf("Scans = 0 after %d scanned pages", scans)
	}
	wantScanned := uint64(4*n + 40 + 40 + 2) // full×4 + interior + between + post-delete
	if scanned != wantScanned {
		t.Fatalf("ScannedKeys = %d, want %d", scanned, wantScanned)
	}
}

// TestScanBadRequest sends the malformed-but-framable SCAN shapes straight
// over a raw connection: each must come back as a typed BAD_REQUEST on a
// connection that keeps serving (the parser is not poisoned).
func TestScanBadRequest(t *testing.T) {
	s, err := New(Config{Shards: 2, ShardWords: 1 << 12, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln := listenLocal(t)
	go func() { _ = s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	roundTrip := func(req *wire.Request) *wire.Response {
		t.Helper()
		frame, err := wire.AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := wire.ReadResponse(br)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp
	}

	cases := []struct {
		name string
		req  wire.Request
	}{
		{"limit zero", wire.Request{Op: wire.OpScan, ID: 1, Key: 0, End: 100, Limit: 0}},
		{"reversed", wire.Request{Op: wire.OpScan, ID: 2, Key: 100, End: 50, Limit: 10}},
		{"empty range", wire.Request{Op: wire.OpScan, ID: 3, Key: 7, End: 7, Limit: 10}},
		{"cursor before start", wire.Request{Op: wire.OpScan, ID: 4, Key: 50, End: 100, Limit: 10, Cursor: 10, HasCursor: true}},
		{"cursor past end", wire.Request{Op: wire.OpScan, ID: 5, Key: 50, End: 100, Limit: 10, Cursor: 100, HasCursor: true}},
	}
	for _, tc := range cases {
		resp := roundTrip(&tc.req)
		if resp.ID != tc.req.ID || resp.Status != wire.StatusBadRequest {
			t.Fatalf("%s: id=%d status=%v, want id=%d BAD_REQUEST", tc.name, resp.ID, resp.Status, tc.req.ID)
		}
		if err := resp.Err(); !errors.Is(err, wire.ErrBadRequest) {
			t.Fatalf("%s: Err() = %v, want ErrBadRequest", tc.name, err)
		}
	}

	// The connection still serves well-formed requests afterwards.
	resp := roundTrip(&wire.Request{Op: wire.OpScan, ID: 9, Key: 0, End: 100, Limit: 10})
	if resp.Status != wire.StatusOK || len(resp.Entries) != 0 || resp.More {
		t.Fatalf("clean scan after rejections: status=%v entries=%d more=%v", resp.Status, len(resp.Entries), resp.More)
	}
}

// TestScanSnapshotSoak is the sequential-consistency oracle for SCAN pages:
// writers continuously move value between counters with cross-shard ATOMIC
// transfers (the range sum is invariant), and every single-page scan of the
// range must observe the invariant exactly — a page that caught a transfer
// half-applied would not sum.
func TestScanSnapshotSoak(t *testing.T) {
	s, err := New(Config{Shards: 2, ShardWords: 1 << 14, WorkersPerShard: 2, QueueDepth: 128})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln := listenLocal(t)
	go func() { _ = s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	c, err := client.Dial(ln.Addr().String(), client.Options{
		PoolSize: 4, BusyRetries: 30, BusyBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const (
		keys = 64
		seed = uint64(1000)
	)
	for k := uint64(0); k < keys; k++ {
		if _, err := c.Add(ctx, k, seed); err != nil {
			t.Fatalf("seed %d: %v", k, err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	// Transfer writers: each ATOMIC moves d from one counter to another
	// (uint64 wrapping makes -d exact), so the range sum never changes.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			for !stop.Load() {
				from, to := uint64(rng.Intn(keys)), uint64(rng.Intn(keys))
				if from == to {
					continue
				}
				d := uint64(rng.Intn(9) + 1)
				_, err := c.Atomic(ctx, []wire.Sub{
					{Kind: wire.SubAdd, Key: from, Delta: ^d + 1},
					{Kind: wire.SubAdd, Key: to, Delta: d},
				})
				if err != nil {
					errCh <- fmt.Errorf("transfer %d->%d: %w", from, to, err)
					return
				}
			}
		}(w)
	}

	// Snapshot scanner: one page covers the whole range, so each scan is
	// one quiesced multi-view transaction and must sum exactly.
	wg.Add(1)
	var pages int
	go func() {
		defer wg.Done()
		for !stop.Load() {
			sc := c.Scan(0, keys, client.ScanOptions{PageSize: keys * 2})
			var sum uint64
			var count int
			for sc.Next(ctx) {
				v, err := client.Counter(sc.Entry().Value)
				if err != nil {
					errCh <- fmt.Errorf("scan decode: %w", err)
					return
				}
				sum += v
				count++
			}
			if err := sc.Err(); err != nil {
				errCh <- fmt.Errorf("scan: %w", err)
				return
			}
			if count != keys || sum != keys*seed {
				errCh <- fmt.Errorf("snapshot violated: %d keys sum %d, want %d keys sum %d",
					count, sum, keys, keys*seed)
				return
			}
			pages++
		}
	}()

	// Paging scanner: consistency is per page, not per scan, so only the
	// ordering contract is asserted — strictly increasing keys, each seen
	// exactly once per full pass.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			sc := c.Scan(0, keys, client.ScanOptions{PageSize: 5})
			last, count := uint64(0), 0
			for sc.Next(ctx) {
				k := sc.Entry().Key
				if count > 0 && k <= last {
					errCh <- fmt.Errorf("paged scan: key %d after %d", k, last)
					return
				}
				last, count = k, count+1
			}
			if err := sc.Err(); err != nil {
				errCh <- fmt.Errorf("paged scan: %w", err)
				return
			}
			if count != keys {
				errCh <- fmt.Errorf("paged scan: %d keys, want %d", count, keys)
				return
			}
		}
	}()

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("soak: %v", err)
	}
	if pages < 3 {
		t.Fatalf("only %d snapshot scans completed", pages)
	}
}

// TestScanServesUnflushedWrites pins the SCAN durability contract on purpose:
// a page, like a GET or a read-only ATOMIC, serves committed memory state and
// does not wait for the durability of the writes it reveals. One shard's
// flush is held in the disk fault hook; the PUT waiting on it is unanswered
// while a page already returns its value.
func TestScanServesUnflushedWrites(t *testing.T) {
	var armed atomic.Bool
	holding, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unhold := func() { once.Do(func() { close(release) }) }
	f := newRoundFixture(t, Config{
		ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
		DiskFaultHook: func(op faultinject.DiskOp) error {
			if op == faultinject.DiskSync && armed.CompareAndSwap(true, false) {
				close(holding)
				<-release
			}
			return nil
		},
	}, 1)
	t.Cleanup(unhold) // registered last: runs before the fixture's Shutdown

	key := f.keys[1][0]
	armed.Store(true)
	f.c.dispatch(f.c.pointReq(wire.OpPut, 1, key, "unflushed"))
	<-holding // committed in memory and appended; its flush is held

	f.c.dispatch(f.c.scanReq(2, 0, 1<<62, 8))
	got := collect(t, f.c, 1)
	if _, answered := got[1]; answered {
		t.Fatal("the PUT was answered while its flush was held")
	}
	if r := got[2]; r.status != wire.StatusOK || len(r.entries) != 1 || r.entries[0].Key != key || string(r.entries[0].Value) != "unflushed" {
		t.Fatalf("page beside an unflushed PUT: %v, entries %v; want the PUT's value", r.status, r.entries)
	}
	select {
	case r := <-f.c.out:
		t.Fatalf("request %d answered while the flush was held", r.ID)
	case <-time.After(20 * time.Millisecond):
	}
	unhold()
	if r := collect(t, f.c, 1)[1]; r.status != wire.StatusOK {
		t.Fatalf("PUT after its flush: %v (%s)", r.status, r.value)
	}
}

// heldConn holds the first Write until release is closed, announcing it on
// writing: a connection writer stalled on its socket mid-stream.
type heldConn struct {
	net.Conn
	writing, release chan struct{}
	once             sync.Once
}

func (h *heldConn) Write(p []byte) (int, error) {
	h.once.Do(func() {
		close(h.writing)
		<-h.release
	})
	return h.Conn.Write(p)
}

// TestScanPageOutlivesNextPage: a page's values live in its own response, so
// they are byte-exact when the writer finally encodes them — here after the
// coordinator has served the connection's next page and the page's keys have
// been overwritten. The writer is held on an earlier PING's write meanwhile.
func TestScanPageOutlivesNextPage(t *testing.T) {
	s, err := New(Config{Shards: 2, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	const keys, perPage = 64, 16
	value := func(k uint64, fill byte) []byte {
		v := bytes.Repeat([]byte{fill}, 40)
		binary.LittleEndian.PutUint64(v, k)
		return v
	}
	put := func(fill func(k uint64) byte) {
		for k := uint64(0); k < keys; k++ {
			sh := s.shards[s.Shard(k)]
			if _, err := sh.testPut(context.Background(), th, k, value(k, fill(k))); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
		}
	}
	put(func(k uint64) byte { return byte(k + 1) })

	// serveConn's body on a pipe whose first write is held.
	cli, srv := net.Pipe()
	held := &heldConn{Conn: srv, writing: make(chan struct{}), release: make(chan struct{})}
	if !s.beginReq() {
		t.Fatal("server already draining")
	}
	c := &conn{srv: s, nc: held, out: make(chan *wire.Response, respChannel)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		writerDone := make(chan struct{})
		go c.writeLoop(writerDone)
		c.readLoop()
		c.hangUp()
		close(c.out)
		<-writerDone
	}()
	release := sync.OnceFunc(func() { close(held.release) })
	defer func() {
		release() // a failed test must not leave the writer held
		_ = cli.Close()
		<-served
	}()

	if err := wire.WriteRequest(cli, &wire.Request{Op: wire.OpPing, ID: 1}); err != nil {
		t.Fatal(err)
	}
	<-held.writing
	pages := []wire.Request{
		{Op: wire.OpScan, ID: 2, End: keys, Limit: perPage},
		{Op: wire.OpScan, ID: 3, End: keys, Limit: perPage, HasCursor: true, Cursor: perPage},
	}
	for i := range pages {
		if err := wire.WriteRequest(cli, &pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(c.out) < len(pages); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d pages answered behind the held writer", len(c.out), len(pages))
		}
	}
	put(func(uint64) byte { return 0xEE })
	release()

	seen := 0
	for i := 0; i <= len(pages); i++ {
		r, err := wire.ReadResponse(cli)
		if err != nil {
			t.Fatal(err)
		}
		if r.Op != wire.OpScan {
			continue
		}
		seen++
		lo := uint64(r.ID-2) * perPage
		if r.Status != wire.StatusOK || len(r.Entries) != perPage {
			t.Fatalf("page %d: %v, %d entries", r.ID, r.Status, len(r.Entries))
		}
		for j, e := range r.Entries {
			if k := lo + uint64(j); e.Key != k || !bytes.Equal(e.Value, value(k, byte(k+1))) {
				t.Errorf("page %d entry %d: key %d = %x, want key %d = %x", r.ID, j, e.Key, e.Value, k, value(k, byte(k+1)))
			}
		}
	}
	if seen != len(pages) {
		t.Errorf("%d pages answered, want %d", seen, len(pages))
	}
}

func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}
