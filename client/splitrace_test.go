package client

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"votm/wire"
)

// splitRaceServer is a stub votmd that answers the first `busy` ATOMIC requests
// with BUSY — the response a real server gives when a live handoff is moving
// a participant shard, or its queue is full. Every later request succeeds.
// BUSY promises the request was not executed, so a client
// configured with BusyRetries must absorb the race transparently.
type splitRaceServer struct {
	ln     net.Listener
	busy   int32
	served atomic.Int32 // total ATOMIC requests seen
}

func newSplitRaceServer(t *testing.T, busy int) *splitRaceServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &splitRaceServer{ln: ln, busy: int32(busy)}
	go s.acceptLoop()
	t.Cleanup(func() { _ = ln.Close() })
	return s
}

func (s *splitRaceServer) addr() string { return s.ln.Addr().String() }

func (s *splitRaceServer) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(nc)
	}
}

func (s *splitRaceServer) serve(nc net.Conn) {
	defer nc.Close()
	for {
		req, err := wire.ReadRequest(nc)
		if err != nil {
			return
		}
		resp := &wire.Response{Op: req.Op, ID: req.ID, Status: wire.StatusOK}
		if req.Op == wire.OpAtomic {
			if n := s.served.Add(1); n <= atomic.LoadInt32(&s.busy) {
				resp.Status = wire.StatusBusy
				resp.Value = []byte("server: shard handoff in progress")
			} else {
				resp.Subs = make([]wire.SubResult, len(req.Subs))
			}
		}
		if err := wire.WriteResponse(nc, resp); err != nil {
			return
		}
	}
}

// TestAtomicRetriesSplitRace: a multi-shard ATOMIC that races a handoff is
// answered BUSY; with BusyRetries set the client must retry until the shard
// serves again and return the committed results, with the caller never
// seeing the race.
func TestAtomicRetriesSplitRace(t *testing.T) {
	const races = 3
	s := newSplitRaceServer(t, races)
	c, err := Dial(s.addr(), Options{
		PoolSize:    1,
		BusyRetries: races + 1,
		BusyBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Keys chosen to hash to different shards on a real server; the stub only
	// checks the op, but the batch shape mirrors the cross-shard case.
	subs, err := c.Atomic(context.Background(), []wire.Sub{
		{Kind: wire.SubPut, Key: 1, Value: []byte("a")},
		{Kind: wire.SubPut, Key: 2, Value: []byte("b")},
	})
	if err != nil {
		t.Fatalf("Atomic after %d BUSY races: %v", races, err)
	}
	if len(subs) != 2 {
		t.Fatalf("Atomic results = %d subs, want 2", len(subs))
	}
	if got := s.served.Load(); got != races+1 {
		t.Errorf("server saw %d ATOMIC attempts, want %d", got, races+1)
	}
}

// TestAtomicSplitRaceSurfacesBusy: without BusyRetries the race is the
// caller's to handle — the client must surface ErrBusy immediately rather
// than retrying behind the caller's back.
func TestAtomicSplitRaceSurfacesBusy(t *testing.T) {
	s := newSplitRaceServer(t, 1)
	c, err := Dial(s.addr(), Options{PoolSize: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	_, err = c.Atomic(context.Background(), []wire.Sub{
		{Kind: wire.SubPut, Key: 1, Value: []byte("a")},
	})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("Atomic with retries disabled: %v, want ErrBusy", err)
	}
	if got := s.served.Load(); got != 1 {
		t.Errorf("server saw %d ATOMIC attempts, want 1 (no client-side retry)", got)
	}
}
