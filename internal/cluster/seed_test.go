package cluster

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"votm/wire"
)

// parked reports whether some goroutine waits in Service.Wait.
func parked() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Service).Wait(")
}

// TestSeedConformance runs both ways a member reaches the shard map — the
// in-process *Service and a *Remote over Serve — through the same cases. A
// case gets the service behind the seed, so it can set the scene, and the
// error the seed gives once that service is closed.
func TestSeedConformance(t *testing.T) {
	cases := []struct {
		name  string
		bound time.Duration // the service's long-poll bound; 0 keeps WatchWait
		run   func(t *testing.T, svc *Service, seed Seed, closed error)
	}{
		{name: "join", run: func(t *testing.T, svc *Service, seed Seed, _ error) {
			id, m, err := seed.Join("n1:1")
			if err != nil || id != 1 || m.Epoch != svc.Epoch() || m.Route(0).Leader != 1 {
				t.Fatalf("first join: id %d, %+v, %v", id, m, err)
			}
			if id, m, err = seed.Join("n2:1"); err != nil || id != 2 || len(m.Route(0).Replicas) != 1 {
				t.Fatalf("second join: id %d, %+v, %v", id, m, err)
			}
			if id, _, err = seed.Join("n1:1"); err != nil || id != 1 {
				t.Fatalf("rejoin: id %d, %v", id, err)
			}
			if _, _, err = seed.Join(""); err == nil {
				t.Fatal("a join with no address succeeded")
			}
		}},
		{name: "watch past an epoch", run: func(t *testing.T, svc *Service, seed Seed, _ error) {
			if _, _, err := seed.Join("n1:1"); err != nil {
				t.Fatal(err)
			}
			e := svc.Epoch()
			if m, err := seed.Wait(context.Background(), e-1); err != nil || m.Epoch != e {
				t.Fatalf("wait past an older epoch: %d, %v; want %d at once", m.Epoch, err, e)
			}
			woke := make(chan wire.ShardMap, 1)
			go func() {
				m, err := seed.Wait(context.Background(), e)
				if err != nil {
					t.Error(err)
				}
				woke <- m
			}()
			for !parked() {
				time.Sleep(time.Millisecond)
			}
			if _, _, err := seed.Join("n2:1"); err != nil {
				t.Fatal(err)
			}
			if m := <-woke; m.Epoch <= e || m.Node(2) == nil {
				t.Fatalf("woke with epoch %d (want > %d): %+v", m.Epoch, e, m)
			}
		}},
		{name: "watch times out", bound: 50 * time.Millisecond, run: func(t *testing.T, svc *Service, seed Seed, _ error) {
			e := svc.Epoch()
			start := time.Now()
			m, err := seed.Wait(context.Background(), e)
			if err != nil || m.Epoch != e || len(m.Shards) != 2 {
				t.Fatalf("a watch past its bound: %+v, %v; want the current map", m, err)
			}
			if d := time.Since(start); d < 40*time.Millisecond {
				t.Fatalf("the watch answered after %v, before its bound", d)
			}
		}},
		{name: "reassign", run: func(t *testing.T, svc *Service, seed Seed, _ error) {
			for _, addr := range []string{"n1:1", "n2:1"} {
				if _, _, err := seed.Join(addr); err != nil {
					t.Fatal(err)
				}
			}
			m, err := seed.ReassignLeader(0, 2)
			if r := m.Route(0); err != nil || r.Leader != 2 || r.Epoch != m.Epoch || m.Epoch != svc.Epoch() {
				t.Fatalf("reassign: %+v, %v", m, err)
			}
			if m.Route(1).Leader != 1 {
				t.Fatalf("shard 1 moved: %+v", m.Route(1))
			}
			if _, err := seed.ReassignLeader(0, 9); err == nil {
				t.Fatal("reassignment to an unknown node succeeded")
			}
		}},
		{name: "closed", run: func(t *testing.T, svc *Service, seed Seed, closed error) {
			failed := make(chan error, 1)
			go func() {
				_, err := seed.Wait(context.Background(), svc.Epoch())
				failed <- err
			}()
			for !parked() {
				time.Sleep(time.Millisecond)
			}
			svc.Close()
			if err := <-failed; !errors.Is(err, closed) {
				t.Fatalf("a watch parked as the service closed: %v, want %v", err, closed)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/in-process", func(t *testing.T) {
			svc := NewService(2, 1, t.Logf)
			if tc.bound > 0 {
				svc.wait = tc.bound
			}
			defer svc.Close()
			tc.run(t, svc, svc, ErrServiceClosed)
		})
		t.Run(tc.name+"/wire", func(t *testing.T) {
			svc := NewService(2, 1, t.Logf)
			if tc.bound > 0 {
				svc.wait = tc.bound
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- Serve(ln, svc) }()
			defer func() {
				svc.Close()
				if err := <-served; err != nil {
					t.Errorf("serve: %v", err)
				}
			}()
			tc.run(t, svc, NewRemote(ln.Addr().String()), wire.ErrShutdown)
		})
	}
}
