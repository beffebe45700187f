package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"votm/wire"
)

// WatchWait bounds a SHARDMAP_WATCH long-poll (Service.Wait): if the epoch
// does not advance within this window the server answers with the current
// map and the watcher re-arms. Bounding the poll keeps graceful drains from
// hanging on idle watchers.
const WatchWait = 10 * time.Second

// The health schedule of every production map service, hosted by a votmd
// node or standalone: each mapped node is pinged every HealthEvery, a probe
// gives up after HealthTimeout, and HealthFailures misses in a row mark the
// node dead — about 5 s after it stopped answering.
const (
	HealthEvery    = time.Second
	HealthFailures = 5
	HealthTimeout  = time.Second
)

// HandleMapOp answers one SHARDMAP_* request against svc, filling resp's
// Status, Map and Cursor (the caller sets Op and ID). OpShardMapWatch
// blocks up to WatchWait — dispatchers must run it off their read loop.
func HandleMapOp(svc *Service, req *wire.Request, resp *wire.Response) {
	fail := func(err error) {
		if errors.Is(err, ErrServiceClosed) {
			resp.Status = wire.StatusShutdown
		} else {
			resp.Status = wire.StatusBadRequest
		}
		resp.SetDetail(err.Error())
	}
	switch req.Op {
	case wire.OpShardMapGet:
		resp.Status = wire.StatusOK
		resp.Map = svc.Snapshot()
	case wire.OpShardMapWatch:
		m, err := svc.Wait(context.Background(), req.Key)
		if err != nil {
			fail(err)
			return
		}
		resp.Status = wire.StatusOK
		resp.Map = m
	case wire.OpShardMapJoin:
		id, m, err := svc.Join(string(req.Value))
		if err != nil {
			fail(err)
			return
		}
		resp.Status = wire.StatusOK
		resp.Cursor = uint64(id)
		resp.Map = m
	case wire.OpShardMapUpdate:
		if req.Key > uint64(^uint32(0)) {
			fail(errors.New("cluster: node id out of range"))
			return
		}
		m, err := svc.ReassignLeader(req.Shard, uint32(req.Key))
		if err != nil {
			fail(err)
			return
		}
		resp.Status = wire.StatusOK
		resp.Map = m
	default:
		resp.Status = wire.StatusBadRequest
		resp.SetDetail("not a shard-map opcode")
	}
}

// Serve runs the standalone shard-map server: PING plus the SHARDMAP_*
// opcodes, one goroutine per request so watches never stall a connection's
// pipeline. It returns when the listener closes (svc.Close also closes it).
// This is what `votmd -cluster-seed -shards 0` runs — a map-only seed
// process with no data plane.
func Serve(ln net.Listener, svc *Service) error {
	go func() {
		<-svc.Done()
		_ = ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-svc.Done():
				return nil
			default:
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveConn(c, svc)
		}()
	}
}

func serveConn(c net.Conn, svc *Service) {
	defer func() { _ = c.Close() }()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-svc.Done():
			// Unblock the read loop on shutdown; requests in flight (a parked
			// watch) still get their SHUTDOWN answer before the close.
			_ = c.SetReadDeadline(time.Now())
			_ = c.SetWriteDeadline(time.Now().Add(ctlTimeout))
		case <-stop:
		}
	}()
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	defer wg.Wait()
	for {
		req, err := wire.ReadRequest(c)
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := &wire.Response{Op: req.Op, ID: req.ID}
			if req.Op == wire.OpPing {
				resp.Status = wire.StatusOK
			} else {
				HandleMapOp(svc, req, resp)
			}
			wmu.Lock()
			err := wire.WriteResponse(c, resp)
			wmu.Unlock()
			if err != nil {
				_ = c.Close()
			}
		}()
	}
}

// StartHealth monitors every mapped node by pinging its advertised address
// each interval; a node missing `failures` consecutive probes is marked
// dead, which promotes a surviving follower for every shard it led. The
// monitor stops when the service closes. All three values must be positive
// (votmd and Member pass HealthEvery, HealthFailures and HealthTimeout).
func (s *Service) StartHealth(every time.Duration, failures int, timeout time.Duration) {
	go func() {
		misses := make(map[uint32]int)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
			}
			m := s.Snapshot()
			for _, n := range m.Nodes {
				if pingNode(n.Addr, timeout) {
					delete(misses, n.ID)
					continue
				}
				misses[n.ID]++
				if misses[n.ID] >= failures {
					s.logf("cluster: node %d (%s) missed %d health probes; marking dead",
						n.ID, n.Addr, misses[n.ID])
					s.MarkDead(n.ID)
					delete(misses, n.ID)
				}
			}
		}
	}()
}

// pingNode dials addr and exchanges one PING within timeout.
func pingNode(addr string, timeout time.Duration) bool {
	p := &peer{addr: addr, timeout: timeout}
	defer p.close()
	_, err := p.do(context.Background(), &wire.Request{Op: wire.OpPing})
	return err == nil
}
