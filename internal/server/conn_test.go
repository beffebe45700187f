package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"votm/wire"
)

// gatedConn holds the reader's second idle re-arm until a deadline of now —
// Shutdown's wake-up — has been set on the connection, and then lets it
// through: the order of a reader that looked at draining just before
// Shutdown stored it and re-arms just after the wake-up.
type gatedConn struct {
	net.Conn
	arms  atomic.Int32
	held  chan struct{} // closed once the second re-arm is held
	woken chan struct{} // closed once the wake-up deadline is set
	wake  sync.Once
}

func (g *gatedConn) SetReadDeadline(t time.Time) error {
	if time.Until(t) < time.Second {
		err := g.Conn.SetReadDeadline(t)
		g.wake.Do(func() { close(g.woken) })
		return err
	}
	if g.arms.Add(1) == 2 {
		close(g.held)
		<-g.woken
	}
	return g.Conn.SetReadDeadline(t)
}

type gatedListener struct {
	net.Listener
	conns chan *gatedConn
}

func (l *gatedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	g := &gatedConn{Conn: nc, held: make(chan struct{}), woken: make(chan struct{})}
	l.conns <- g
	return g, nil
}

// serveOn starts s on a loopback listener wrapped by wrap and returns the
// listener's address and Serve's result.
func serveOn(t *testing.T, s *Server, wrap func(net.Listener) net.Listener) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(wrap(ln)) }()
	return ln.Addr().String(), served
}

// TestDrainIdleRearmRace: a reader that checked draining just before
// Shutdown stored it, and re-armed its idle deadline just after Shutdown's
// wake-up, must not sleep out IdleTimeout in its read — the graceful drain
// returns well inside its deadline.
func TestDrainIdleRearmRace(t *testing.T) {
	s, err := New(Config{Shards: 1, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	gl := &gatedListener{conns: make(chan *gatedConn, 1)}
	addr, served := serveOn(t, s, func(ln net.Listener) net.Listener { gl.Listener = ln; return gl })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// One round trip: the reader answers it and loops to its next re-arm.
	if err := wire.WriteRequest(nc, &wire.Request{Op: wire.OpPing, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if r, err := wire.ReadResponse(nc); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("ping: %v %v", r, err)
	}
	<-(<-gl.conns).held

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a reader re-arming behind the wake-up: %v, want nil", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// lateListener hands an accepted connection over only once the listener has
// been closed: the connection Serve accepts after the drain began.
type lateListener struct {
	net.Listener
	accepted chan struct{}
	closed   chan struct{}
	once     sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	close(l.accepted)
	<-l.closed
	return nc, nil
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

// TestDrainRefusesLateAccept: a connection accepted after the drain began is
// closed unread — its pipelined PUT is neither answered nor executed.
func TestDrainRefusesLateAccept(t *testing.T) {
	s, err := New(Config{Shards: 2, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	ll := &lateListener{accepted: make(chan struct{}), closed: make(chan struct{})}
	addr, served := serveOn(t, s, func(ln net.Listener) net.Listener { ll.Listener = ln; return ll })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if err := wire.WriteRequest(nc, &wire.Request{Op: wire.OpPut, ID: 1, Key: 7, Value: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	<-ll.accepted

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if r, err := wire.ReadResponse(nc); err == nil {
		t.Fatalf("a connection accepted after the drain began was answered: %+v", r)
	} else if errors.Is(err, wire.ErrProtocol) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a connection accepted after the drain began got bytes back: %v", err)
	}
	if n := serverKeys(s); n != 0 {
		t.Errorf("%d keys after the late PUT: it executed", n)
	}
}

// serverKeys sums the key counters of every sub-shard.
func serverKeys(s *Server) (n int64) {
	for _, sh := range s.appendSubShards(nil) {
		n += sh.keys.Load()
	}
	return n
}

// pipeliner keeps window PUTs in flight on one raw connection — each request a
// fresh key — until stop closes, and records every answer by request ID.
type pipeliner struct {
	nc       net.Conn
	base     uint64
	window   int
	statuses map[uint32]wire.Status
	answered chan struct{} // one token per answer
	done     chan error    // the read side's end
}

func (p *pipeliner) run(stop <-chan struct{}) {
	credits := make(chan struct{}, p.window)
	for i := 0; i < p.window; i++ {
		credits <- struct{}{}
	}
	go func() {
		var buf []byte
		for id := uint32(1); ; id++ {
			select {
			case <-stop:
				return
			case <-credits:
			}
			buf, _ = wire.AppendRequest(buf[:0], &wire.Request{Op: wire.OpPut, ID: id, Key: p.base + uint64(id), Value: []byte("v")})
			if _, err := p.nc.Write(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		resp := new(wire.Response)
		for {
			err := wire.ReadResponseReuse(p.nc, resp)
			if err != nil {
				// The server hangs up on requests it never read: a reset
				// after the last answer is as clean an end as EOF.
				if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
					err = nil
				}
				p.done <- err
				return
			}
			p.statuses[resp.ID] = resp.Status
			credits <- struct{}{}
			select {
			case p.answered <- struct{}{}:
			default:
			}
		}
	}()
}

// TestDrainPipeliningConnections drains a server while several connections
// keep PUTs pipelined. A reader reads frames in order and answers every frame
// it read, so each connection's answers are exactly its first n requests: OK
// up to the drain, SHUTDOWN after it, none lost. Every OK executed and
// nothing else did, and no connection, worker or coordinator goroutine
// outlives Shutdown.
func TestDrainPipeliningConnections(t *testing.T) {
	entries := []string{"(*Server).serveConn(", "(*conn).writeLoop(", "(*Server).worker(", "(*roundCoordinator).loop("}
	var base [4]int
	for same := 0; same < 3; time.Sleep(time.Millisecond) {
		same++
		for i, e := range entries {
			if n := serverGoroutines(e); n != base[i] {
				base[i], same = n, 0
			}
		}
	}
	s, err := New(Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	addr, served := serveOn(t, s, func(ln net.Listener) net.Listener { return ln })
	const conns, window = 4, 64
	stop := make(chan struct{})
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
	}()
	ps := make([]*pipeliner, conns)
	for i := range ps {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		ps[i] = &pipeliner{nc: nc, base: uint64(i) << 32, window: window, statuses: map[uint32]wire.Status{},
			answered: make(chan struct{}, 1), done: make(chan error, 1)}
		ps[i].run(stop)
	}
	// Let every connection get well into its stream before the drain.
	for _, p := range ps {
		for n := 0; n < 4*window; n++ {
			select {
			case <-p.answered:
			case <-time.After(5 * time.Second):
				t.Fatal("a pipelining connection made no progress")
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	var ok, refused int64
	for i, p := range ps {
		if err := <-p.done; err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
		n := uint32(len(p.statuses))
		shutdownSeen := false
		for id := uint32(1); id <= n; id++ {
			st, answered := p.statuses[id]
			switch {
			case !answered:
				t.Fatalf("connection %d: %d answers, but request %d of them is missing", i, n, id)
			case st == wire.StatusOK && shutdownSeen:
				t.Fatalf("connection %d: request %d answered OK after an earlier one was refused", i, id)
			case st == wire.StatusOK:
				ok++
			case st == wire.StatusShutdown:
				shutdownSeen = true
				refused++
			default:
				t.Fatalf("connection %d: request %d answered %v", i, id, st)
			}
		}
	}
	if keys := serverKeys(s); keys != ok {
		t.Errorf("%d keys after the drain, %d PUTs answered OK", keys, ok)
	}
	t.Logf("%d PUTs answered OK, %d SHUTDOWN", ok, refused)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		left := 0
		for i, e := range entries {
			left += serverGoroutines(e) - base[i]
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d server goroutines outlived Shutdown", left)
		}
	}
}

// TestDrainAnswersMapWatch: a SHARDMAP_WATCH parked in its long-poll holds
// its connection's drain registration, and the drain answers it SHUTDOWN at
// once instead of waiting out the poll.
func TestDrainAnswersMapWatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s, err := New(Config{Shards: 1, WorkersPerShard: 1, Durability: DurabilityGroup, DataDir: t.TempDir(),
		SnapshotEvery: time.Hour, ClusterSeed: true, ClusterAdvertise: ln.Addr().String()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if err := wire.WriteRequest(nc, &wire.Request{Op: wire.OpShardMapGet, ID: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadResponse(nc)
	if err != nil || m.Status != wire.StatusOK {
		t.Fatalf("map get: %v %v", m, err)
	}
	if err := wire.WriteRequest(nc, &wire.Request{Op: wire.OpShardMapWatch, ID: 2, Key: m.Map.Epoch}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); serverGoroutines("HandleMapOp(", "(*Service).Wait(") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watch never parked")
		}
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a watch parked: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if r, err := wire.ReadResponse(nc); err != nil || r.ID != 2 || r.Status != wire.StatusShutdown {
		t.Fatalf("the parked watch: %v %v, want SHUTDOWN", r, err)
	}
	t.Logf("drained in %v with a watch parked", time.Since(start))
}

// failingConn refuses its first write, closing wrote: a writer's stream
// failing. The writer never writes again.
type failingConn struct {
	net.Conn
	wrote chan struct{}
}

func (f failingConn) Write([]byte) (int, error) {
	close(f.wrote)
	return 0, errors.New("write refused")
}

func (failingConn) SetWriteDeadline(time.Time) error { return nil }

// members returns the set of objects on l; the caller is its reader.
func members[T any](l *freeList[T]) map[*T]bool {
	set := map[*T]bool{}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, end := range [][]*T{l.own, l.shared} {
		for _, x := range end {
			set[x] = true
		}
	}
	return set
}

// stock returns the requests and responses idle on c; the caller is its
// reader.
func (c *conn) stock() (map[*wire.Request]bool, map[*wire.Response]bool) {
	return members(&c.reqs), members(&c.resps)
}

// gather moves what was given back to l onto the reader's end and tops that
// up to n objects from below, so that what the reader takes next comes from
// the stock it held before: an object a release site drops leaves it for good.
func gather[T any](l *freeList[T], n int) {
	l.mu.Lock()
	l.own, l.shared = append(l.own, l.shared...), l.shared[:0]
	l.mu.Unlock()
	for len(l.own) < n {
		l.own = append([]*T{new(T)}, l.own...)
	}
}

// gatherStock gathers both of c's lists.
func (c *conn) gatherStock() {
	gather(&c.reqs, 16)
	gather(&c.resps, 16)
}

// TestSteadyStateConnRecycling: once warm, a connection carrying same-shard
// and spanning ATOMICs, SCAN pages, REPLICATE frames its leader refuses and
// requests dispatch rejects allocates no request or response: every object
// it hands out comes back to it — from a group, a round, a replication
// finish, an inline reply — and so does every response a failed writer
// drains.
func TestSteadyStateConnRecycling(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	f := newRoundFixture(t, Config{ShardWords: 1 << 12, WorkersPerShard: 1, RequestTimeout: time.Hour,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
		ClusterSeed: true, ClusterAdvertise: ln.Addr().String()}, 2)
	c, val := f.c, []byte("value")
	put := func(k uint64) wire.Sub { return wire.Sub{Kind: wire.SubPut, Key: k, Value: val} }
	round := func() {
		c.gatherStock()
		c.dispatch(c.atomicReq(1, put(f.keys[0][0]), put(f.keys[0][1])))
		c.dispatch(f.spanningReq(2, 1, val))
		c.dispatch(c.scanReq(3, 0, 1<<62, 4))
		repl := c.testReq(wire.OpReplicate, 4)
		repl.Shard, repl.Value = 1, val
		c.dispatch(repl)
		c.dispatch(c.scanReq(5, 9, 1, 4)) // reversed range: BAD_REQUEST inline
		got := collect(t, c, 5)
		for id, want := range map[uint32]wire.Status{1: wire.StatusOK, 2: wire.StatusOK, 3: wire.StatusOK,
			4: wire.StatusWrongShard, 5: wire.StatusBadRequest} {
			if got[id].status != want {
				t.Fatalf("request %d: %v (%s), want %v", id, got[id].status, got[id].value, want)
			}
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	reqs, resps := c.stock()
	for i := 0; i < 32; i++ {
		round()
		if r, p := c.stock(); !reflect.DeepEqual(r, reqs) || !reflect.DeepEqual(p, resps) {
			t.Fatalf("round %d: the connection's stock of %d requests and %d responses changed: now %d and %d, not all of them the same",
				i, len(reqs), len(resps), len(r), len(p))
		}
	}

	// A writer whose stream failed keeps draining out and gives back what it
	// drains. Each pass runs a fresh writer on w: its first write fails, the
	// rest of the pass's answers arrive behind the failure.
	w := newTestConn(f.s, respChannel)
	pass := func() map[*wire.Response]bool {
		w.gatherStock()
		fc := failingConn{wrote: make(chan struct{})}
		w.nc, w.out = fc, make(chan *wire.Response, respChannel)
		writerDone := make(chan struct{})
		go w.writeLoop(writerDone)
		w.dispatch(w.testReq(wire.OpPing, 1))
		<-fc.wrote
		for id := uint32(2); id <= 8; id++ {
			w.dispatch(w.testReq(wire.OpPing, id))
		}
		close(w.out)
		<-writerDone
		_, p := w.stock()
		return p
	}
	var warm map[*wire.Response]bool
	for i := 0; i < 4; i++ {
		warm = pass()
	}
	for i := 0; i < 8; i++ {
		if p := pass(); !reflect.DeepEqual(p, warm) {
			t.Fatalf("pass %d: the stock of %d responses behind a failed writer changed: now %d, not all of them the same", i, len(warm), len(p))
		}
	}
}

// TestConnRetentionBound: after a connection carried a MaxValueLen value both
// ways and a full SCAN page, none of the requests and responses it keeps for
// reuse holds a buffer of more than retainMax bytes — the large ones were
// dropped — while it still keeps the small ones.
func TestConnRetentionBound(t *testing.T) {
	s, err := New(Config{Shards: 2, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	th := s.rt.RegisterThread()
	defer th.Release()
	for k := uint64(0); k < wire.MaxScanKeys+8; k++ {
		sh := s.shards[s.Shard(k)].route(k)
		if _, err := sh.testPut(context.Background(), th, k, []byte("small")); err != nil {
			t.Fatalf("seed %d: %v", k, err)
		}
	}

	// serveConn's body on a pipe, keeping hold of the conn.
	cli, srv := net.Pipe()
	if !s.beginReq() {
		t.Fatal("server already draining")
	}
	c := &conn{srv: s, nc: srv, out: make(chan *wire.Response, respChannel)}
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
	big := bytes.Repeat([]byte{0xB1}, s.cfg.MaxValueLen)
	for i, tc := range []struct {
		req  wire.Request
		want func(*wire.Response) bool
	}{
		{wire.Request{Op: wire.OpPut, Key: 3, Value: big}, nil},
		{wire.Request{Op: wire.OpGet, Key: 3}, func(r *wire.Response) bool { return bytes.Equal(r.Value, big) }},
		{wire.Request{Op: wire.OpScan, End: 1 << 62, Limit: wire.MaxScanKeys}, func(r *wire.Response) bool { return len(r.Entries) == wire.MaxScanKeys }},
		{wire.Request{Op: wire.OpPut, Key: 4, Value: []byte("after")}, nil},
		{wire.Request{Op: wire.OpGet, Key: 4}, func(r *wire.Response) bool { return string(r.Value) == "after" }},
	} {
		tc.req.ID = uint32(i + 1)
		if err := wire.WriteRequest(cli, &tc.req); err != nil {
			t.Fatalf("%v: %v", tc.req.Op, err)
		}
		r, err := wire.ReadResponse(cli)
		if err != nil {
			t.Fatalf("%v: %v", tc.req.Op, err)
		}
		if r.Status != wire.StatusOK || (tc.want != nil && !tc.want(r)) {
			t.Fatalf("%v: status %v, %d value bytes, %d entries", tc.req.Op, r.Status, len(r.Value), len(r.Entries))
		}
	}
	_ = cli.Close()
	<-served

	reqs, resps := c.stock()
	if len(reqs) == 0 || len(resps) == 0 {
		t.Fatalf("the connection kept %d requests and %d responses, want some of each", len(reqs), len(resps))
	}
	for r := range reqs {
		frame := reflect.ValueOf(r).Elem().FieldByName("frame").Cap()
		if subs := cap(r.Subs) * int(unsafe.Sizeof(wire.Sub{})); frame > retainMax || subs > retainMax {
			t.Errorf("a kept request holds a %d-byte frame and %d bytes of subs, bound %d", frame, subs, retainMax)
		}
	}
	for r := range resps {
		if n := cap(r.Value) + cap(r.Subs)*int(unsafe.Sizeof(wire.SubResult{})) + cap(r.Entries)*int(unsafe.Sizeof(wire.ScanEntry{})); n > retainMax {
			t.Errorf("a kept response holds %d bytes, bound %d", n, retainMax)
		}
	}
}

// fillExported sets every exported field of the struct v points to non-zero.
func fillExported(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(1)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 2))
		case reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Struct:
			fillExported(t, f)
		default:
			t.Fatalf("field %s: kind %v is not handled — teach fillExported and clearResponse about it", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestClearResponseClearsEveryField is wire's TestResetClearsEveryField for
// the server's reuse of responses: a field added to wire.Response and
// forgotten in clearResponse fails here.
func TestClearResponseClearsEveryField(t *testing.T) {
	var r wire.Response
	fillExported(t, reflect.ValueOf(&r).Elem())
	if !clearResponse(&r) {
		t.Fatal("clearResponse refused a small response")
	}
	if len(r.Value)+len(r.Subs)+len(r.Entries) != 0 || cap(r.Value) == 0 || cap(r.Subs) == 0 || cap(r.Entries) == 0 {
		t.Errorf("clearResponse kept %d/%d/%d elements or dropped an array", len(r.Value), len(r.Subs), len(r.Entries))
	}
	r.Value, r.Subs, r.Entries = nil, nil, nil
	if !reflect.DeepEqual(r, wire.Response{}) {
		t.Errorf("clearResponse left %+v", r)
	}
}

// countingSink is the write side of a connection that discards what it is
// sent and tells how many frames each write carried.
type countingSink struct {
	net.Conn
	credits chan int
}

func (s *countingSink) Write(p []byte) (int, error) {
	frames := 0
	for off := 0; off < len(p); off += 4 + int(binary.LittleEndian.Uint32(p[off:])) {
		frames++
	}
	s.credits <- frames
	return len(p), nil
}

func (s *countingSink) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkRequestLifecycle times what a request costs between decode and
// encode with no store work behind it: per connection, a reader dispatches
// pre-decoded GETs through conn.dispatch into the shard rings, up to a
// pipelining window; one executor per shard drains its ring and answers what
// it took in chains through finishGroup, without a transaction; the
// connection's write loop encodes into a sink that discards and returns the
// window. It runs {1, 2, 4} connections × {1, 4} executors.
func BenchmarkRequestLifecycle(b *testing.B) {
	for _, conns := range []int{1, 2, 4} {
		for _, execs := range []int{1, 4} {
			b.Run(fmt.Sprintf("conns%d/execs%d", conns, execs), func(b *testing.B) {
				benchLifecycle(b, conns, execs)
			})
		}
	}
}

func benchLifecycle(b *testing.B, conns, execs int) {
	const window = 128
	s := &Server{cfg: Config{Shards: execs, QueueDepth: 1024}.withDefaults()}
	for i := 0; i < execs; i++ {
		g := &shardGroup{id: i}
		subs := []*shard{s.newShard(i, nil, nil)}
		g.subs.Store(&subs)
		s.shards = append(s.shards, g)
	}
	var executors sync.WaitGroup
	for _, g := range s.shards {
		sh := (*g.subs.Load())[0]
		executors.Add(1)
		go func() {
			defer executors.Done()
			var batch []task
			var ops []groupOp
			for {
				t, ok := sh.queue.Pop()
				if !ok {
					return
				}
				batch = sh.queue.PopBatch(append(batch[:0], t), s.cfg.BatchMax)
				for _, t := range batch {
					t.resp.Value = append(t.resp.Value[:0], "sixteen-byte-val"...)
					ops = append(ops, groupOp{t: t})
				}
				s.finishGroup(ops)
				clear(ops)
				ops = ops[:0]
			}
		}()
	}

	b.ReportAllocs()
	b.ResetTimer()
	var readers sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		n := b.N / conns
		if ci == 0 {
			n += b.N % conns
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			sink := &countingSink{credits: make(chan int, window+1)}
			if !s.beginReq() {
				panic("bench server draining")
			}
			c := &conn{srv: s, nc: sink, out: make(chan *wire.Response, respChannel)}
			writerDone := make(chan struct{})
			go c.writeLoop(writerDone)
			answered := 0
			for i := 0; i < n; i++ {
				for i-answered >= window {
					answered += <-sink.credits
				}
				req := c.testReq(wire.OpGet, uint32(i+1))
				req.Key = uint64(i*conns + ci)
				c.dispatch(req)
			}
			for answered < n {
				answered += <-sink.credits
			}
			c.hangUp()
			close(c.out)
			<-writerDone
		}()
	}
	readers.Wait()
	b.StopTimer()
	for _, g := range s.shards {
		(*g.subs.Load())[0].queue.Close()
	}
	executors.Wait()
}
