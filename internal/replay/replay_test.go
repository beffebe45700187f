package replay

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"votm/client"
	"votm/internal/server"
	"votm/wire"
)

// -update regenerates testdata/golden.trace and testdata/golden.digest:
//
//	go test ./internal/replay -run TestGoldenTraceReplay -update
var update = flag.Bool("update", false, "regenerate the committed golden trace and digest")

// replayServerConfig is the fixed configuration both capture and replay
// servers run: the trace's digest is only meaningful against the same
// sharding and limits.
func replayServerConfig() server.Config {
	return server.Config{
		Shards: 2, ShardWords: 1 << 14, WorkersPerShard: 1,
		QueueDepth: 256,
	}
}

func startServer(t testing.TB) (addr string, shutdown func()) {
	t.Helper()
	srv, err := server.New(replayServerConfig())
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once bool
	shutdown = func() {
		if once {
			return
		}
		once = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	t.Cleanup(shutdown)
	return ln.Addr().String(), shutdown
}

// runWorkload drives the golden workload through addr: two single-
// connection clients in strict alternation (so global arrival order is
// program order), covering every data opcode — puts across value-codec
// boundaries, deletes, CAS hits and misses, counter adds, cross-shard
// ATOMIC batches, and paged scans. Everything is derived from loop
// indices: re-running it produces the same frames.
func runWorkload(t testing.TB, addr string) {
	t.Helper()
	ctx := context.Background()
	var cs [2]*client.Client
	for i := range cs {
		c, err := client.Dial(addr, client.Options{PoolSize: 1})
		if err != nil {
			t.Fatalf("dial workload client %d: %v", i, err)
		}
		defer c.Close()
		cs[i] = c
	}

	step := 0
	turn := func() *client.Client { c := cs[step%2]; step++; return c }

	for i := 0; i < 60; i++ {
		key := uint64(i * 7)
		val := []byte(fmt.Sprintf("value-%03d-%s", i, strings.Repeat("x", i%40)))
		if _, err := turn().Put(ctx, key, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := turn().Get(ctx, uint64(i*14)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := turn().Delete(ctx, uint64(i*7*5)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		key := uint64(i*7 + 7)
		old := []byte(fmt.Sprintf("value-%03d-%s", i+1, strings.Repeat("x", (i+1)%40)))
		err := turn().CAS(ctx, key, old, []byte(fmt.Sprintf("cas-%03d", i)))
		if err != nil && !errors.Is(err, client.ErrCASMismatch) && !errors.Is(err, client.ErrNotFound) {
			t.Fatalf("cas %d: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := turn().Add(ctx, uint64(1_000_000+i%5), uint64(i+1)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		_, err := turn().Atomic(ctx, []wire.Sub{
			{Kind: wire.SubAdd, Key: uint64(2_000_000 + i), Delta: uint64(i + 1)},
			{Kind: wire.SubAdd, Key: uint64(3_000_000 + i), Delta: ^uint64(i+1) + 1},
			{Kind: wire.SubPut, Key: uint64(4_000_000 + i), Value: []byte(fmt.Sprintf("pair-%d", i))},
		})
		if err != nil {
			t.Fatalf("atomic %d: %v", i, err)
		}
	}
	// Paged scans ride the trace too: replay must answer them (responses
	// are drained, not compared — the digest is the equality witness).
	for _, page := range []int{3, 100} {
		sc := turn().Scan(0, 5_000_000, client.ScanOptions{PageSize: page})
		n := 0
		for sc.Next(ctx) {
			n++
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan page=%d: %v", page, err)
		}
		if n == 0 {
			t.Fatal("workload scan saw empty keyspace")
		}
	}
}

func digestOf(t testing.TB, addr string) string {
	t.Helper()
	c, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatalf("dial digest client: %v", err)
	}
	defer c.Close()
	d, err := StateDigest(context.Background(), c)
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return d
}

// record captures the golden workload into a trace, returning the trace
// bytes and the capture server's final-state digest.
func record(t testing.TB) ([]byte, string) {
	t.Helper()
	addr, shutdown := startServer(t)
	var buf bytes.Buffer
	p, err := NewProxy(addr, &buf)
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	runWorkload(t, p.Addr())
	if err := p.Close(); err != nil {
		t.Fatalf("proxy close: %v", err)
	}
	digest := digestOf(t, addr)
	shutdown()
	return buf.Bytes(), digest
}

// replayDigest replays records against a fresh server and returns the
// resulting state digest.
func replayDigest(t testing.TB, recs []Record) string {
	t.Helper()
	addr, shutdown := startServer(t)
	frames, err := Replay(recs, addr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if frames == 0 {
		t.Fatal("replayed zero frames")
	}
	digest := digestOf(t, addr)
	shutdown()
	return digest
}

// TestRecordReplayRoundTrip proves the harness end to end without touching
// the committed files: capture a fresh trace, replay it twice against
// fresh servers, and all three states must hash identically.
func TestRecordReplayRoundTrip(t *testing.T) {
	trace, liveDigest := record(t)
	recs, err := ReadTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	for i := 0; i < 2; i++ {
		if d := replayDigest(t, recs); d != liveDigest {
			t.Fatalf("replay %d digest %s, capture digest %s", i, d, liveDigest)
		}
	}
}

// TestGoldenTraceReplay replays the COMMITTED trace twice against fresh
// servers; both final states must hash to the committed digest. This is
// the regression tripwire: a change that makes execution depend on
// anything but the operation bytes (iteration order, RNG, allocator
// layout) breaks it. Regenerate intentionally with -update.
func TestGoldenTraceReplay(t *testing.T) {
	tracePath := filepath.Join("testdata", "golden.trace")
	digestPath := filepath.Join("testdata", "golden.digest")

	if *update {
		trace, digest := record(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes) and %s", tracePath, len(trace), digestPath)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("reading golden trace (regenerate with -update): %v", err)
	}
	wantRaw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("reading golden digest (regenerate with -update): %v", err)
	}
	want := strings.TrimSpace(string(wantRaw))
	recs, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	for i := 0; i < 2; i++ {
		if got := replayDigest(t, recs); got != want {
			t.Fatalf("replay %d: digest %s, golden %s", i, got, want)
		}
	}
}

// TestTraceFormat round-trips the record encoding and rejects corruption.
func TestTraceFormat(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := w.Open(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Frame(0, frame); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(0); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Kind != recOpen || recs[1].Kind != recFrame || recs[2].Kind != recClose {
		t.Fatalf("round trip: %+v", recs)
	}
	if !bytes.Equal(recs[1].Frame, frame) {
		t.Fatalf("frame bytes drifted: %v", recs[1].Frame)
	}

	if _, err := ReadTrace(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	trunc := buf.Bytes()[:len(buf.Bytes())-3]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}
