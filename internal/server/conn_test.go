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

	"votm"
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
// wake-up, must not sleep out idleTimeout in its read — the graceful drain
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
	f := newRoundFixture(t, Config{ShardWords: 1 << 12, WorkersPerShard: 1, RequestTimeout: time.Hour,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour, Cluster: stubCluster{}}, 2)
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

// TestConnRetentionBound: after a connection carried a maxValueLen value both
// ways, a full SCAN page and a one-entry SCAN page of the large value (whose
// values buffer alone passes retainMax), none of the requests and responses
// it keeps for reuse holds a buffer of more than retainMax bytes — the large
// ones were dropped — while it still keeps the small ones.
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
	big := bytes.Repeat([]byte{0xB1}, maxValueLen)
	for i, tc := range []struct {
		req  wire.Request
		want func(*wire.Response) bool
	}{
		{wire.Request{Op: wire.OpPut, Key: 3, Value: big}, nil},
		{wire.Request{Op: wire.OpGet, Key: 3}, func(r *wire.Response) bool { return bytes.Equal(r.Value, big) }},
		{wire.Request{Op: wire.OpScan, End: 1 << 62, Limit: wire.MaxScanKeys}, func(r *wire.Response) bool { return len(r.Entries) == wire.MaxScanKeys }},
		{wire.Request{Op: wire.OpPut, Key: 4, Value: []byte("after")}, nil},
		{wire.Request{Op: wire.OpGet, Key: 4}, func(r *wire.Response) bool { return string(r.Value) == "after" }},
		{wire.Request{Op: wire.OpScan, Key: 3, End: 4, Limit: 1}, func(r *wire.Response) bool {
			return len(r.Entries) == 1 && bytes.Equal(r.Entries[0].Value, big)
		}},
		// A small page next: had the large page's response been kept, this
		// one would reuse it and keep its buffer once more.
		{wire.Request{Op: wire.OpScan, Key: 4, End: 5, Limit: 1}, func(r *wire.Response) bool {
			return len(r.Entries) == 1 && string(r.Entries[0].Value) == "after"
		}},
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

// pipeServe serves one in-memory connection on s, as Serve does after an
// accept, and returns the client's end. The reader takes in one read all that
// one client Write carries, so a Write is a burst.
func pipeServe(t *testing.T, s *Server) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	if !s.beginReq() {
		t.Fatal("server already draining")
	}
	go s.serveConn(srv)
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// encode appends the frames of reqs to one buffer.
func encode(t *testing.T, reqs ...wire.Request) []byte {
	t.Helper()
	var buf []byte
	for i := range reqs {
		var err error
		if buf, err = wire.AppendRequest(buf, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// answers reads n responses from cli, failing on a deadline or on a second
// answer to one request.
func answers(t *testing.T, cli net.Conn, n int) map[uint32]*wire.Response {
	t.Helper()
	_ = cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make(map[uint32]*wire.Response, n)
	for len(got) < n {
		r, err := wire.ReadResponse(cli)
		if err != nil {
			t.Fatalf("%d of %d answers, then: %v", len(got), n, err)
		}
		if _, dup := got[r.ID]; dup {
			t.Fatalf("request %d answered twice", r.ID)
		}
		got[r.ID] = r
	}
	return got
}

// keysOn returns n keys of each of s's shards.
func keysOn(s *Server, n int) [][]uint64 {
	keys := make([][]uint64, len(s.shards))
	for k, full := uint64(1), 0; full < len(keys); k++ {
		i := s.Shard(k)
		if keys[i] = append(keys[i], k); len(keys[i]) == n {
			full++
		}
	}
	for i := range keys {
		keys[i] = keys[i][:n]
	}
	return keys
}

func put(id uint32, key uint64, val string) wire.Request {
	return wire.Request{Op: wire.OpPut, ID: id, Key: key, Value: []byte(val)}
}

// stagingServer is the two-shard, one-worker server the staging tests share,
// shut down with the test.
func stagingServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Shards: 2, WorkersPerShard: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	return s
}

// blockReader writes reqs and 256 STATS behind them to cli as one burst and
// returns once the reader is blocked handing answers to a client that is not
// reading (the writer holds a full buffer of them, the response channel is
// full): whatever reqs the reader staged and has not published stays staged.
// It returns every request written.
func blockReader(t *testing.T, cli net.Conn, reqs []wire.Request) []wire.Request {
	t.Helper()
	for id, last := uint32(len(reqs)+1), uint32(len(reqs)+256); id <= last; id++ {
		reqs = append(reqs, wire.Request{Op: wire.OpStats, ID: id, Shard: wire.AllShards})
	}
	burst := encode(t, reqs...)
	go func() { _, _ = cli.Write(burst) }()
	for deadline := time.Now().Add(5 * time.Second); serverGoroutines("[chan send", "(*conn).readLoop(") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never blocked on its answers")
		}
	}
	return reqs
}

// TestStagedRunsPublishBeforeBlockingRead: a client writes k PUTs and part of
// one more frame, then waits. The reader must publish what it staged before it
// reads on — the buffer is not empty, but the next frame is not whole — so all
// k answers arrive before the rest of the frame is sent.
func TestStagedRunsPublishBeforeBlockingRead(t *testing.T) {
	s := stagingServer(t)
	const k = 6
	for _, part := range []int{2, 9} { // inside the length prefix, inside the body
		cli := pipeServe(t, s)
		var reqs []wire.Request
		for i := uint32(1); i <= k+1; i++ {
			reqs = append(reqs, put(i, uint64(part)<<8|uint64(i), "v"))
		}
		burst := encode(t, reqs...)
		cut := len(burst) - len(encode(t, reqs[k])) + part
		if _, err := cli.Write(burst[:cut]); err != nil {
			t.Fatal(err)
		}
		for id, r := range answers(t, cli, k) {
			if r.Status != wire.StatusOK {
				t.Fatalf("cut %d bytes into the last frame: request %d answered %v", part, id, r.Status)
			}
		}
		if _, err := cli.Write(burst[cut:]); err != nil {
			t.Fatal(err)
		}
		if r := answers(t, cli, 1)[k+1]; r == nil || r.Status != wire.StatusOK {
			t.Fatalf("the straddling frame: %v", r)
		}
	}
}

// TestStagedRunAdmissionPrefix: a burst whose run for one shard finds that
// shard's ring with room for only part of it has the prefix that fits pushed
// and the rest answered BUSY — unexecuted, on the ring-full meter — while the
// other shard's run is untouched; every request is answered exactly once.
func TestStagedRunAdmissionPrefix(t *testing.T) {
	s, err := New(Config{Shards: 2, WorkersPerShard: 1, QueueDepth: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	keys := keysOn(s, 16)
	full, other := (*s.shards[0].subs.Load())[0], (*s.shards[1].subs.Load())[0]
	const room = 3

	// Park full's one worker in its view's admission with a first filler PUT,
	// then queue fillers behind it until room slots are left.
	ctl := full.view.Controller()
	if err := ctl.PauseAndDrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ctl.Resume() // a second Resume releases nothing
	filler := newTestConn(s, 64)
	filler.dispatch(filler.pointReq(wire.OpPut, 1, keys[0][8], "filler"))
	for deadline := time.Now().Add(5 * time.Second); serverGoroutines("(*Server).worker(", "(*Controller).Enter(") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never parked in admission")
		}
	}
	fillers := 1 + full.queue.Cap() - room
	for id := 2; id <= fillers; id++ {
		filler.dispatch(filler.pointReq(wire.OpPut, uint32(id), keys[0][7+id], "filler"))
	}

	cli := pipeServe(t, s)
	var reqs []wire.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, put(uint32(2*i+1), keys[0][i], "full"))
		if i < 5 {
			reqs = append(reqs, put(uint32(2*i+2), keys[1][i], "other"))
		}
	}
	if _, err := cli.Write(encode(t, reqs...)); err != nil {
		t.Fatal(err)
	}
	got := answers(t, cli, len(reqs)-room) // all but the pushed prefix
	ctl.Resume()
	for id, r := range answers(t, cli, room) {
		got[id] = r
	}
	collect(t, filler, fillers)

	th := s.rt.RegisterThread()
	defer th.Release()
	for _, req := range reqs {
		want, onFull := wire.StatusOK, req.ID%2 == 1
		if onFull && req.ID > 2*room {
			want = wire.StatusBusy
		}
		if st := got[req.ID].Status; st != want {
			t.Fatalf("request %d (full shard %v): %v, want %v", req.ID, onFull, st, want)
		}
		sh := other
		if onFull {
			sh = full
		}
		if _, ok, _ := sh.testGet(context.Background(), th, req.Key); ok != (want == wire.StatusOK) {
			t.Errorf("request %d answered %v, but its key exists: %v", req.ID, want, ok)
		}
	}
	if n := full.ringFull.Load(); n != 8-room {
		t.Errorf("full shard metered %d ring-full, want %d", n, 8-room)
	}
	if n := other.ringFull.Load(); n != 0 {
		t.Errorf("the other shard metered %d ring-full", n)
	}
}

// TestStagedRunsAnsweredOnReaderExit: however the reader leaves in the
// middle of a burst, every request it staged is published and answered.
func TestStagedRunsAnsweredOnReaderExit(t *testing.T) {
	puts := func(n int) (reqs []wire.Request) {
		for i := uint32(1); i <= uint32(n); i++ {
			reqs = append(reqs, put(i, uint64(i), "staged"))
		}
		return reqs
	}
	allOK := func(t *testing.T, got map[uint32]*wire.Response, n int) {
		for id := uint32(1); id <= uint32(n); id++ {
			if r := got[id]; r == nil || r.Status != wire.StatusOK {
				t.Fatalf("staged request %d: %v", id, r)
			}
		}
	}

	// A protocol error: the staged PUTs sit before a whole frame that fails to
	// parse, so the reader leaves with them staged.
	t.Run("protocol error", func(t *testing.T) {
		cli := pipeServe(t, stagingServer(t))
		bad := encode(t, wire.Request{Op: wire.OpPing})
		bad[4] = 0xEE // version
		if _, err := cli.Write(append(encode(t, puts(6)...), bad...)); err != nil {
			t.Fatal(err)
		}
		got := answers(t, cli, 7)
		allOK(t, got, 6)
		if r := got[0]; r == nil || r.Op != wire.OpError {
			t.Fatalf("no OpError frame for the bad frame: %v", r)
		}
	})

	// EOF: the client half-closes after a burst that ends inside a frame.
	t.Run("EOF", func(t *testing.T) {
		s := stagingServer(t)
		addr, _ := serveOn(t, s, func(ln net.Listener) net.Listener { return ln })
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		burst := encode(t, puts(7)...)
		if _, err := nc.Write(burst[:len(burst)-5]); err != nil {
			t.Fatal(err)
		}
		if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		allOK(t, answers(t, nc, 6), 6)
		if r, err := wire.ReadResponse(nc); err == nil {
			t.Fatalf("an answer to the torn frame: %+v", r)
		}
	})

	// Shutdown: the reader stages two PUTs and blocks (blockReader); the
	// drain begins; the client reads. The reader stops at the next frame, as
	// a drain has it stop, and leaves with the two PUTs staged: they execute
	// and are answered, beside every frame it read.
	t.Run("shutdown", func(t *testing.T) {
		s := stagingServer(t)
		cli := pipeServe(t, s)
		reqs := blockReader(t, cli, puts(2))
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			drained <- s.Shutdown(ctx)
		}()
		for !s.draining.Load() {
			time.Sleep(time.Millisecond)
		}
		_ = cli.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := map[uint32]*wire.Response{}
		for {
			r, err := wire.ReadResponse(cli)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("after %d answers: %v", len(got), err)
				}
				break
			}
			if got[r.ID] != nil {
				t.Fatalf("request %d answered twice", r.ID)
			}
			got[r.ID] = r
		}
		if len(got) < 3 || len(got) == len(reqs) {
			t.Fatalf("%d of %d frames answered: the drain did not stop the reader mid-burst", len(got), len(reqs))
		}
		allOK(t, got, len(got))
		if err := <-drained; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if n := serverKeys(s); n != 2 {
			t.Errorf("%d keys after the drain, want the 2 staged PUTs", n)
		}
	})
}

// TestStagedRunsPublishedWhileReaderBlocks: a run is published once it holds
// the shard's group bound, and before the reader hands a spanning ATOMIC to
// the round coordinator — not only when the burst ends. The reader stages
// PUTs and blocks (blockReader); the PUTs must execute meanwhile.
func TestStagedRunsPublishedWhileReaderBlocks(t *testing.T) {
	s := stagingServer(t)
	keys := keysOn(s, 20)
	th := s.rt.RegisterThread()
	defer th.Release()
	sh := (*s.shards[0].subs.Load())[0]
	full := make([]wire.Request, s.cfg.BatchMax)
	for i := range full {
		full[i] = put(uint32(i+1), keys[0][i], "a full group")
	}
	spanning := wire.Request{Op: wire.OpAtomic, ID: 2,
		Subs: []wire.Sub{{Kind: wire.SubGet, Key: keys[0][19]}, {Kind: wire.SubGet, Key: keys[1][19]}}}
	for name, reqs := range map[string][]wire.Request{
		"group bound":  full,
		"before round": {put(1, keys[0][18], "before the round"), spanning},
	} {
		cli := pipeServe(t, s)
		reqs = blockReader(t, cli, reqs)
		for _, req := range reqs {
			for deadline := time.Now().Add(5 * time.Second); req.Op == wire.OpPut; time.Sleep(time.Millisecond) {
				if _, ok, _ := sh.testGet(context.Background(), th, req.Key); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: PUT %d stayed staged while the reader was blocked", name, req.ID)
				}
			}
		}
		for id, r := range answers(t, cli, len(reqs)) {
			if r.Status != wire.StatusOK {
				t.Fatalf("%s: request %d answered %v", name, id, r.Status)
			}
		}
		_ = cli.Close()
	}
}

// TestStagedRunsKeepArrivalOrder: staging keeps a connection's order on each
// ring. A PUT and a GET of one key in one burst read the PUT's value, on
// every shard and across runs published at the group bound.
func TestStagedRunsKeepArrivalOrder(t *testing.T) {
	s := stagingServer(t)
	cli := pipeServe(t, s)
	var reqs []wire.Request
	for i := uint32(0); i < 40; i++ {
		reqs = append(reqs, put(2*i+1, uint64(i), fmt.Sprint("v", i)), wire.Request{Op: wire.OpGet, ID: 2*i + 2, Key: uint64(i)})
	}
	if _, err := cli.Write(encode(t, reqs...)); err != nil {
		t.Fatal(err)
	}
	got := answers(t, cli, len(reqs))
	for i := uint32(0); i < 40; i++ {
		if r := got[2*i+2]; r.Status != wire.StatusOK || string(r.Value) != fmt.Sprint("v", i) {
			t.Fatalf("GET %d behind its PUT: %v %q", i, r.Status, r.Value)
		}
	}
}

// bareServer is a server of shard rings with nothing behind them — no view,
// no worker, no coordinator: the caller drains the rings.
func bareServer(shards int) *Server {
	s := &Server{cfg: Config{Shards: shards, QueueDepth: 1024}.withDefaults()}
	for i := 0; i < shards; i++ {
		g := &shardGroup{id: i}
		subs := []*shard{s.newShard(i, nil, nil)}
		g.subs.Store(&subs)
		s.shards = append(s.shards, g)
	}
	return s
}

// stubCluster is a plane that leads every shard and does nothing else: it
// passes every data op, sends REPLICATE and HANDOFF to their shard's worker
// and answers them there WRONG_SHARD, as a leader refuses a stream.
type stubCluster struct{}

func (stubCluster) Start([]*Shard) error { return nil }

func (stubCluster) Gate(req *wire.Request, _ *wire.Response) Verdict {
	if req.Op == wire.OpReplicate || req.Op == wire.OpHandoff {
		return GateStream
	}
	return GatePass
}

func (stubCluster) Stream(_ *votm.Thread, _ *wire.Request, resp *wire.Response) uint64 {
	resp.Status = wire.StatusWrongShard
	resp.Value = wire.WrongShardDetail(resp.Value[:0], 7)
	return 0
}

func (stubCluster) Serve(*wire.Request, *wire.Response) {}
func (stubCluster) Tee(int, uint64, []byte)             {}
func (stubCluster) WaitReplicated(int, uint64)          {}
func (stubCluster) StopControl()                        {}
func (stubCluster) StopSenders()                        {}
func (stubCluster) Stats(int, *wire.ShardStats)         {}

// TestReplicateKeepsRingOrder: a REPLICATE stream interleaved with data ops on
// one shard lands on the ring in arrival order — each stream frame is pushed
// behind the data ops staged before it.
func TestReplicateKeepsRingOrder(t *testing.T) {
	s := bareServer(1)
	s.cfg.Cluster = stubCluster{}
	cli, srv := net.Pipe()
	defer cli.Close()
	if !s.beginReq() {
		t.Fatal("draining")
	}
	c := &conn{srv: s, nc: srv, out: make(chan *wire.Response, respChannel)}
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)
	go func() {
		c.readLoop()
		c.hangUp()
		close(c.out)
	}()
	var reqs []wire.Request
	for id := uint32(1); id <= 9; id++ {
		if id%3 == 0 {
			reqs = append(reqs, wire.Request{Op: wire.OpReplicate, ID: id, Key: uint64(id), Value: []byte("frames")})
		} else {
			reqs = append(reqs, put(id, uint64(id), "v"))
		}
	}
	if _, err := cli.Write(encode(t, reqs...)); err != nil {
		t.Fatal(err)
	}
	q := (*s.shards[0].subs.Load())[0].queue
	for deadline := time.Now().Add(5 * time.Second); q.Len() < len(reqs); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests reached the ring", q.Len(), len(reqs))
		}
	}
	ts := q.PopBatch(nil, len(reqs))
	for i, tk := range ts {
		if tk.req.ID != uint32(i+1) {
			t.Errorf("ring slot %d holds request %d (%v), want %d", i, tk.req.ID, tk.req.Op, i+1)
		}
	}
	for _, tk := range ts {
		s.finish(tk)
	}
	_ = cli.Close()
	<-writerDone
}

// memConn is a client connection in memory: each Read delivers a burst of up
// to frames encoded requests, once the answers to all but window of those
// delivered have come back through Write, until left requests were sent.
type memConn struct {
	net.Conn
	burst            []byte // frames identical-length request frames
	frames, window   int
	left, sent, done int
	rest             []byte
	credits          chan int // frames per Write
}

func (m *memConn) Read(p []byte) (int, error) {
	if len(m.rest) == 0 {
		if m.left == 0 {
			return 0, io.EOF
		}
		k := min(m.frames, m.left)
		for m.sent+k-m.done > m.window {
			m.done += <-m.credits
		}
		m.left, m.sent, m.rest = m.left-k, m.sent+k, m.burst[:k*len(m.burst)/m.frames]
	}
	n := copy(p, m.rest)
	m.rest = m.rest[n:]
	return n, nil
}

func (m *memConn) Write(p []byte) (int, error) {
	frames := 0
	for off := 0; off < len(p); off += 4 + int(binary.LittleEndian.Uint32(p[off:])) {
		frames++
	}
	m.credits <- frames
	return len(p), nil
}

func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkRequestLifecycle times what a request costs between the socket
// read and the socket write with no store work behind it: per connection, the
// real read loop takes bursts of 64 encoded GETs from an in-memory client
// that keeps 128 in flight, decodes them and stages and publishes them onto
// the shard rings; one executor per shard drains its ring and answers what it
// took in chains through finishGroup, without a transaction; the
// connection's write loop encodes into the client, which counts the answers.
// It runs {1, 2, 4} connections × {1, 4} executors.
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
	const window, burst = 128, 64
	s := bareServer(execs)
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
		// At most window answers are ever unaccounted for, and each write
		// carries at least one: the writer never waits on credits.
		mc := &memConn{frames: burst, window: window, left: b.N / conns, credits: make(chan int, window)}
		if ci == 0 {
			mc.left += b.N % conns
		}
		for i := 0; i < burst; i++ {
			mc.burst, _ = wire.AppendRequest(mc.burst, &wire.Request{Op: wire.OpGet, ID: uint32(i + 1), Key: uint64(i*conns + ci)})
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			if !s.beginReq() {
				panic("bench server draining")
			}
			c := &conn{srv: s, nc: mc, out: make(chan *wire.Response, respChannel)}
			writerDone := make(chan struct{})
			go c.writeLoop(writerDone)
			c.readLoop()
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
