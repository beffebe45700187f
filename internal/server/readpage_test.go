package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm"
	"votm/internal/faultinject"
	"votm/wire"
)

// pageSum checks one whole-range page of counters: every key present once,
// in order, summing to want.
func pageSum(r *wire.Response, keys int, want uint64) error {
	if r.Status != wire.StatusOK {
		return fmt.Errorf("page: %v (%s)", r.Status, r.Value)
	}
	var sum uint64
	for i, e := range r.Entries {
		if i > 0 && e.Key <= r.Entries[i-1].Key {
			return fmt.Errorf("page: key %d after %d", e.Key, r.Entries[i-1].Key)
		}
		sum += binary.LittleEndian.Uint64(e.Value)
	}
	if len(r.Entries) != keys || r.More || sum != want {
		return fmt.Errorf("page torn: %d keys (more %v) sum %d, want %d keys sum %d", len(r.Entries), r.More, sum, keys, want)
	}
	return nil
}

// transfer is an ATOMIC moving d from one counter to another (uint64
// wrapping makes -d exact), so the counters' sum never changes.
func transfer(id uint32, from, to, d uint64) wire.Request {
	return wire.Request{Op: wire.OpAtomic, ID: id, Subs: []wire.Sub{
		{Kind: wire.SubAdd, Key: from, Delta: ^d + 1},
		{Kind: wire.SubAdd, Key: to, Delta: d},
	}}
}

// deadlineTrip is roundTrip with a deadline: a request left unanswered fails
// the test instead of hanging it.
func deadlineTrip(cli net.Conn, reqs []wire.Request) (map[uint32]*wire.Response, error) {
	_ = cli.SetDeadline(time.Now().Add(10 * time.Second))
	return roundTrip(cli, reqs)
}

// TestReaderPagesNeverTorn races SCAN pages served on the connection readers
// — their connections send no ATOMIC, so no page waits for a round —
// against transfers from other connections, cross-shard ones in rounds and
// same-shard ones in groups: every page covers the whole range and must sum
// to the invariant. A second phase holds an Exclusive section on one shard
// at a time while the transfers run, until all three readers wait in a
// fallen-back page's quiesce at once: many multi-view pausers beside the
// coordinator, and every request must still be answered.
func TestReaderPagesNeverTorn(t *testing.T) {
	const (
		keys    = 64
		seed    = uint64(1000)
		writers = 3
		readers = 3
	)
	s, err := New(Config{Shards: 4, ShardWords: 1 << 14, WorkersPerShard: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	setup := pipeServe(t, s)
	seeds := make([]wire.Request, keys)
	for k := range seeds {
		seeds[k] = wire.Request{Op: wire.OpAtomic, ID: uint32(k + 1), Subs: []wire.Sub{{Kind: wire.SubAdd, Key: uint64(k), Delta: seed}}}
	}
	got, err := deadlineTrip(setup, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range got {
		if r.Status != wire.StatusOK {
			t.Fatalf("seed %d: %v", id, r.Status)
		}
	}

	var (
		stop  atomic.Bool
		pages atomic.Uint64 // answered, all checked
		wg    sync.WaitGroup
		errs  = make(chan error, writers+readers)
	)
	for w := 0; w < writers; w++ {
		cli := pipeServe(t, s)
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			reqs := make([]wire.Request, 4)
			for !stop.Load() {
				for i := range reqs {
					from, to := uint64(rng.Intn(keys)), uint64(rng.Intn(keys-1))
					if to >= from {
						to++
					}
					reqs[i] = transfer(uint32(i+1), from, to, uint64(rng.Intn(9)+1))
				}
				got, err := deadlineTrip(cli, reqs)
				if err != nil {
					errs <- fmt.Errorf("transfers: %w", err)
					return
				}
				for id, r := range got {
					if r.Status != wire.StatusOK {
						errs <- fmt.Errorf("transfer %d: %v (%s)", id, r.Status, r.Value)
						return
					}
				}
			}
		}(rand.New(rand.NewSource(int64(w) + 42)))
	}
	for rd := 0; rd < readers; rd++ {
		cli := pipeServe(t, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := []wire.Request{
				{Op: wire.OpScan, ID: 1, Key: 0, End: keys, Limit: 2 * keys},
				{Op: wire.OpScan, ID: 2, Key: 0, End: keys, Limit: 2 * keys},
			}
			for !stop.Load() {
				got, err := deadlineTrip(cli, reqs)
				if err != nil {
					errs <- fmt.Errorf("pages: %w", err)
					return
				}
				for _, r := range got {
					if err := pageSum(r, keys, keys*seed); err != nil {
						errs <- err
						return
					}
				}
				pages.Add(uint64(len(got)))
			}
		}()
	}
	fail := func(err error) {
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			select {
			case err := <-errs:
				fail(err)
			default:
			}
			if time.Now().After(deadline) {
				fail(fmt.Errorf("timed out waiting for %s: %+v", what, s.RoundStats()))
			}
		}
	}

	// Phase 1: pages beside the transfers.
	waitFor("pages and rounds", func() bool {
		rs := s.RoundStats()
		return pages.Load() >= 4000 && rs.Rounds >= 1000
	})

	// Phase 2: every validated read is refused while a section holds a view,
	// so each reader's next page falls back and waits in its quiesce (a
	// reader's page may also have fallen back before the section began).
	for i := 0; i < 4; i++ {
		inside, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		t.Cleanup(func() { // a failed wait leaves the section to the cleanup
			select {
			case <-release:
			default:
				close(release)
			}
		})
		go func(i int) {
			done <- s.shards[i].view.Exclusive(context.Background(), func(votm.Tx) error {
				close(inside)
				<-release
				return nil
			})
		}(i)
		<-inside
		waitFor("every reader in a fallen-back page at once", func() bool {
			return serverGoroutines("(*pager).read(", "AtomicAll(") >= readers
		})
		close(release)
		if err := <-done; err != nil {
			fail(fmt.Errorf("Exclusive: %w", err))
		}
		n := pages.Load()
		waitFor("pages after the section", func() bool { return pages.Load() >= n+3*readers })
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rs := s.RoundStats()
	if rs.Pages != pages.Load() || rs.PageFallbacks < readers || rs.Rounds == 0 {
		t.Fatalf("meters %+v: want %d pages, at least %d of them fallen back, and rounds run", rs, pages.Load(), readers)
	}
	t.Logf("%d pages (%d tries, %d fell back) beside %d rounds", rs.Pages, rs.PageTries, rs.PageFallbacks, rs.Rounds)
}

// TestReaderPagesQueueBehindOwnRound pins SCAN's contract over the wire: a
// page pipelined behind its connection's own unanswered cross-shard ATOMIC
// goes to the round queue and sees the transfer whole, answered while the
// ATOMIC's flush is still held; a page sent after the ATOMIC's answer is the
// reader's, answered while the coordinator is stuck waiting for a flight.
func TestReaderPagesQueueBehindOwnRound(t *testing.T) {
	var held atomic.Pointer[chan struct{}]
	s, err := New(Config{
		Shards: 3, ShardWords: 1 << 12, WorkersPerShard: 1,
		Durability: DurabilityGroup, DataDir: t.TempDir(), SnapshotEvery: time.Hour,
		DiskFaultHook: func(op faultinject.DiskOp) error {
			if g := held.Load(); op == faultinject.DiskSync && g != nil {
				<-*g
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	// hold stops every flush until the returned release: registered after
	// shutdownServer, its cleanup runs first.
	hold := func() (release func()) {
		g := make(chan struct{})
		held.Store(&g)
		var once sync.Once
		release = func() {
			once.Do(func() {
				held.Store(nil)
				close(g)
			})
		}
		t.Cleanup(release)
		return release
	}
	on := keysOn(s, 1)
	a, b := on[0][0], on[1][0]
	cli := pipeServe(t, s)
	seed := []wire.Request{
		{Op: wire.OpAtomic, ID: 1, Subs: []wire.Sub{{Kind: wire.SubAdd, Key: a, Delta: 100}}},
		{Op: wire.OpAtomic, ID: 2, Subs: []wire.Sub{{Kind: wire.SubAdd, Key: b, Delta: 100}}},
	}
	if got, err := deadlineTrip(cli, seed); err != nil || got[1].Status != wire.StatusOK || got[2].Status != wire.StatusOK {
		t.Fatalf("seed: %v %v", got, err)
	}
	page := func(id uint32) wire.Request {
		return wire.Request{Op: wire.OpScan, ID: id, Key: 0, End: 1 << 62, Limit: 64}
	}
	counters := func(r *wire.Response) (va, vb uint64) {
		for _, e := range r.Entries {
			switch e.Key {
			case a:
				va = binary.LittleEndian.Uint64(e.Value)
			case b:
				vb = binary.LittleEndian.Uint64(e.Value)
			}
		}
		return va, vb
	}
	read := func(c net.Conn) *wire.Response {
		t.Helper()
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		r, err := wire.ReadResponse(c)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return r
	}

	// One burst: the transfer, then a page. The round executes and its flush
	// is held, so the ATOMIC stays unanswered; the page, queued behind it,
	// is answered first and shows the transfer.
	release := hold()
	burst := encode(t, transfer(10, a, b, 10), page(11))
	if _, err := cli.Write(burst); err != nil {
		t.Fatal(err)
	}
	if r := read(cli); r.ID != 11 || r.Status != wire.StatusOK {
		t.Fatalf("first answer: request %d, %v; want the page while the ATOMIC's flush is held", r.ID, r.Status)
	} else if va, vb := counters(r); va != 90 || vb != 110 {
		t.Fatalf("the page behind the transfer saw %d and %d, want 90 and 110: the transfer whole", va, vb)
	}
	release()
	if r := read(cli); r.ID != 10 || r.Status != wire.StatusOK {
		t.Fatalf("transfer: request %d, %v (%s)", r.ID, r.Status, r.Value)
	}

	// Stop the coordinator: two rounds in doubt behind held flushes, a third
	// waiting for a flight. A page from the first connection, whose round is
	// answered, is served by its reader all the same.
	inFlight := func() uint64 {
		s.rounds.fmu.Lock()
		defer s.rounds.fmu.Unlock()
		return uint64(len(s.rounds.inflight))
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, s.RoundStats())
			}
		}
	}
	waitFor("the first round to settle", func() bool { return inFlight() == 0 })
	release = hold()
	other := pipeServe(t, s)
	r0 := s.RoundStats().Rounds
	for i := uint64(1); i <= 3; i++ {
		req := transfer(uint32(20+i), a, b, 1)
		if err := wire.WriteRequest(other, &req); err != nil {
			t.Fatal(err)
		}
		waitFor(fmt.Sprintf("round %d to start", i), func() bool { return s.RoundStats().Rounds == r0+i })
		waitFor(fmt.Sprintf("round %d to take a flight", i), func() bool { return inFlight() == min(i, maxInDoubt) })
	}
	req := page(30)
	if err := wire.WriteRequest(cli, &req); err != nil {
		t.Fatal(err)
	}
	if r := read(cli); r.ID != 30 || r.Status != wire.StatusOK {
		t.Fatalf("page after the answer: request %d, %v", r.ID, r.Status)
	} else if va, vb := counters(r); va != 88 || vb != 112 {
		t.Fatalf("the reader's page saw %d and %d, want 88 and 112: the two rounds executed, not the waiting one", va, vb)
	}
	release()
	for i := 0; i < 3; i++ {
		if r := read(other); r.Status != wire.StatusOK {
			t.Fatalf("transfer %d: %v (%s)", r.ID, r.Status, r.Value)
		}
	}
	if rs := s.RoundStats(); rs.Pages != 2 {
		t.Fatalf("meters %+v: want 2 pages", rs)
	}
}
