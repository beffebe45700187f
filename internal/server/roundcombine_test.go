package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"votm/client"
	"votm/internal/faultinject"
	"votm/internal/server"
	"votm/wire"
)

// TestRoundCombinesAcrossConnections is the combining proof for the
// server-wide round coordinator. Four pipelined connections fire two-shard
// transfers (ADD -x on one account, ADD +x on an account of another shard)
// over every pair of shards, against a durable 4-shard × 2-token server
// whose flush takes a millisecond — so tasks pile up behind the running
// round. It asserts more than one task per round on average, one flush per
// round, every transfer acknowledged, and the zero-sum oracle intact (each
// transfer applied on both shards or neither).
func TestRoundCombinesAcrossConnections(t *testing.T) {
	const (
		shards, conns  = 4, 4
		window, bursts = 32, 6
		perShard       = 64
	)
	srv, addr := startServer(t, server.Config{
		Shards:          shards,
		WorkersPerShard: 2,
		QueueDepth:      256,
		RequestTimeout:  30 * time.Second,
		Durability:      server.DurabilityGroup,
		DataDir:         t.TempDir(),
		SnapshotEvery:   time.Hour,
		DiskFaultHook: func(op faultinject.DiskOp) error {
			if op == faultinject.DiskSync {
				time.Sleep(time.Millisecond)
			}
			return nil
		},
	})
	var accounts [shards][]uint64
	for s := range accounts {
		accounts[s] = keysOnShard(srv, s, perShard, 1)
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return err
				}
				defer nc.Close()
				br := bufio.NewReader(nc)
				rng := rand.New(rand.NewSource(int64(ci) + 1))
				req, resp := &wire.Request{}, &wire.Response{}
				var buf []byte
				for b := 0; b < bursts; b++ {
					buf = buf[:0]
					for i := 0; i < window; i++ {
						// Any two distinct shards.
						from := rng.Intn(shards)
						to := (from + 1 + rng.Intn(shards-1)) % shards
						x := uint64(rng.Intn(1000) + 1)
						*req = wire.Request{Op: wire.OpAtomic, ID: uint32(b*window + i + 1), Subs: []wire.Sub{
							{Kind: wire.SubAdd, Key: accounts[from][rng.Intn(perShard)], Delta: -x},
							{Kind: wire.SubAdd, Key: accounts[to][rng.Intn(perShard)], Delta: x},
						}}
						if buf, err = wire.AppendRequest(buf, req); err != nil {
							return err
						}
					}
					if _, err := nc.Write(buf); err != nil {
						return err
					}
					for i := 0; i < window; i++ {
						if err := wire.ReadResponseReuse(br, resp); err != nil {
							return err
						}
						if resp.Status != wire.StatusOK {
							return fmt.Errorf("conn %d: transfer %d: status %v (%s)", ci, resp.ID, resp.Status, resp.Value)
						}
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	rs := srv.RoundStats()
	if want := uint64(conns * window * bursts); rs.Tasks != want {
		t.Errorf("rounds carried %d tasks, want every one of the %d transfers", rs.Tasks, want)
	}
	if rs.MeanTasks() <= 1 {
		t.Errorf("mean tasks per round %.2f, want > 1: %+v", rs.MeanTasks(), rs)
	}
	if rs.Logged != rs.Rounds || rs.InDoubtHigh > 2 {
		t.Errorf("%d of %d rounds logged, %d in flight at most; want every round logged and never more than two in doubt: %+v", rs.Logged, rs.Rounds, rs.InDoubtHigh, rs)
	}
	t.Logf("%d rounds (%d beside an earlier round's flush), %.1f tasks/round, largest %d, %d gated group waits",
		rs.Rounds, rs.Overlapped, rs.MeanTasks(), rs.Largest, srv.AckStats().Gated)

	c := dialClient(t, addr, client.Options{})
	var sum uint64
	for s := range accounts {
		for _, k := range accounts[s] {
			raw, err := c.Get(context.Background(), k)
			if errors.Is(err, wire.ErrNotFound) {
				continue // never drawn
			}
			if err != nil {
				t.Fatalf("account %d: %v", k, err)
			}
			v, err := client.Counter(raw)
			if err != nil {
				t.Fatalf("account %d: %v", k, err)
			}
			sum += v
		}
	}
	if sum != 0 {
		t.Errorf("accounts sum to %d (mod 2^64), want 0: a transfer was half applied", sum)
	}
}
