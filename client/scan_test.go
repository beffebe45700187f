package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"votm/wire"
)

// scanStub is a stub votmd whose SCAN behaviour is scripted per request:
// handler sees the nth scan request (0-based) and produces the response
// status and page. Every scan request is recorded for assertions on the
// cursor-continuation protocol. PING answers OK so Dial succeeds.
type scanStub struct {
	ln      net.Listener
	handler func(n int, req *wire.Request) *wire.Response

	mu   sync.Mutex
	seen []wire.Request // shallow copies of the scan requests observed
}

func newScanStub(t *testing.T, handler func(n int, req *wire.Request) *wire.Response) *scanStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &scanStub{ln: ln, handler: handler}
	go s.acceptLoop()
	t.Cleanup(func() { _ = ln.Close() })
	return s
}

func (s *scanStub) addr() string { return s.ln.Addr().String() }

func (s *scanStub) requests() []wire.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Request(nil), s.seen...)
}

func (s *scanStub) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(nc)
	}
}

func (s *scanStub) serve(nc net.Conn) {
	defer nc.Close()
	for {
		req, err := wire.ReadRequest(nc)
		if err != nil {
			return
		}
		var resp *wire.Response
		if req.Op == wire.OpScan {
			s.mu.Lock()
			n := len(s.seen)
			s.seen = append(s.seen, *req)
			s.mu.Unlock()
			resp = s.handler(n, req)
		} else {
			resp = &wire.Response{Op: req.Op, Status: wire.StatusOK}
		}
		resp.Op, resp.ID = req.Op, req.ID
		if err := wire.WriteResponse(nc, resp); err != nil {
			return
		}
	}
}

// page builds an OK scan response holding the given keys (values derived
// from the key), continuing at cursor when more is set.
func page(keys []uint64, more bool, cursor uint64) *wire.Response {
	resp := &wire.Response{Status: wire.StatusOK, More: more, Cursor: cursor}
	for _, k := range keys {
		resp.Entries = append(resp.Entries, wire.ScanEntry{Key: k, Value: []byte{byte(k)}})
	}
	return resp
}

// TestScanPagination drives a three-page scan and asserts both sides of the
// continuation contract: the client concatenates pages in order, sends no
// cursor on the first request, and echoes the server's cursor verbatim on
// every follow-up.
func TestScanPagination(t *testing.T) {
	s := newScanStub(t, func(n int, req *wire.Request) *wire.Response {
		switch n {
		case 0:
			return page([]uint64{1, 2, 3}, true, 5)
		case 1:
			return page([]uint64{5, 6, 7}, true, 9)
		default:
			return page([]uint64{9}, false, 0)
		}
	})
	c, err := Dial(s.addr(), Options{PoolSize: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx := context.Background()
	sc := c.Scan(1, 100, ScanOptions{PageSize: 3})
	var got []uint64
	for sc.Next(ctx) {
		e := sc.Entry()
		if len(e.Value) != 1 || e.Value[0] != byte(e.Key) {
			t.Fatalf("entry %d carries value %v", e.Key, e.Value)
		}
		got = append(got, e.Key)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	want := []uint64{1, 2, 3, 5, 6, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("scanned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scanned %v, want %v", got, want)
		}
	}

	reqs := s.requests()
	if len(reqs) != 3 {
		t.Fatalf("server saw %d scan requests, want 3", len(reqs))
	}
	if reqs[0].HasCursor {
		t.Fatalf("first page carried a cursor: %+v", reqs[0])
	}
	for i, wantCursor := range []uint64{5, 9} {
		r := reqs[i+1]
		if !r.HasCursor || r.Cursor != wantCursor {
			t.Fatalf("page %d: HasCursor=%v Cursor=%d, want cursor %d", i+1, r.HasCursor, r.Cursor, wantCursor)
		}
		if r.Key != 1 || r.End != 100 || r.Limit != 3 {
			t.Fatalf("page %d: bounds drifted: %+v", i+1, r)
		}
	}
}

// TestScanBusyMidScan: the server BUSYs between two pages (a cluster
// member mid-handoff) and the client's
// jittered retry layer must resume the SAME page — same bounds, same
// cursor — transparently.
func TestScanBusyMidScan(t *testing.T) {
	s := newScanStub(t, func(n int, req *wire.Request) *wire.Response {
		switch n {
		case 0:
			return page([]uint64{10, 11}, true, 20)
		case 1, 2:
			return &wire.Response{Status: wire.StatusBusy}
		default:
			return page([]uint64{20, 21}, false, 0)
		}
	})
	c, err := Dial(s.addr(), Options{PoolSize: 1, BusyRetries: 5, BusyBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	sc := c.Scan(0, 1000, ScanOptions{PageSize: 2})
	var got []uint64
	for sc.Next(context.Background()) {
		got = append(got, sc.Entry().Key)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != 4 || got[0] != 10 || got[3] != 21 {
		t.Fatalf("scanned %v, want [10 11 20 21]", got)
	}

	reqs := s.requests()
	if len(reqs) != 4 {
		t.Fatalf("server saw %d scan requests, want 4 (1 + 2 busy + 1)", len(reqs))
	}
	for i := 1; i < 4; i++ {
		if !reqs[i].HasCursor || reqs[i].Cursor != 20 {
			t.Fatalf("retry %d lost the cursor: %+v", i, reqs[i])
		}
	}
}

// TestScanBusyExhausted: a scan that keeps getting BUSY surfaces ErrBusy
// through Err after the retry budget, not a silent short result.
func TestScanBusyExhausted(t *testing.T) {
	s := newScanStub(t, func(n int, req *wire.Request) *wire.Response {
		if n == 0 {
			return page([]uint64{1}, true, 2)
		}
		return &wire.Response{Status: wire.StatusBusy}
	})
	c, err := Dial(s.addr(), Options{PoolSize: 1, BusyRetries: 2, BusyBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	sc := c.Scan(0, 10, ScanOptions{})
	var got int
	for sc.Next(context.Background()) {
		got++
	}
	if !errors.Is(sc.Err(), ErrBusy) {
		t.Fatalf("Err = %v, want ErrBusy", sc.Err())
	}
	if got != 1 {
		t.Fatalf("yielded %d entries before failing, want the 1 delivered", got)
	}
	if sc.Next(context.Background()) {
		t.Fatal("Next returned true after a terminal error")
	}
}

// TestScanTypedError: a server-side rejection (BAD_REQUEST) surfaces as the
// wire-typed error.
func TestScanTypedError(t *testing.T) {
	s := newScanStub(t, func(n int, req *wire.Request) *wire.Response {
		resp := &wire.Response{Status: wire.StatusBadRequest}
		resp.SetDetail("scan range is empty or reversed")
		return resp
	})
	c, err := Dial(s.addr(), Options{PoolSize: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	sc := c.Scan(10, 5, ScanOptions{})
	if sc.Next(context.Background()) {
		t.Fatal("Next returned true for a rejected scan")
	}
	if !errors.Is(sc.Err(), ErrBadRequest) {
		t.Fatalf("Err = %v, want ErrBadRequest", sc.Err())
	}
}

// TestScanEmptyAndClamp: an empty final page ends the scan cleanly, and
// ScanOptions.PageSize is clamped into [1, wire.MaxScanKeys].
func TestScanEmptyAndClamp(t *testing.T) {
	s := newScanStub(t, func(n int, req *wire.Request) *wire.Response {
		return page(nil, false, 0)
	})
	c, err := Dial(s.addr(), Options{PoolSize: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	for _, tc := range []struct {
		pageSize  int
		wantLimit uint32
	}{
		{0, wire.MaxScanKeys},
		{-3, wire.MaxScanKeys},
		{wire.MaxScanKeys + 1, wire.MaxScanKeys},
		{17, 17},
	} {
		sc := c.Scan(0, 100, ScanOptions{PageSize: tc.pageSize})
		if sc.Next(context.Background()) {
			t.Fatalf("PageSize %d: Next true on empty range", tc.pageSize)
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("PageSize %d: %v", tc.pageSize, err)
		}
		reqs := s.requests()
		if got := reqs[len(reqs)-1].Limit; got != tc.wantLimit {
			t.Fatalf("PageSize %d sent Limit %d, want %d", tc.pageSize, got, tc.wantLimit)
		}
	}
}
