package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"votm/wire"
)

// Seed is the shard-map service as a member reaches it: the in-process
// *Service on the node that hosts the map, a *Remote on every other node.
type Seed interface {
	// Join registers a node by its advertised address: its id and the map.
	Join(addr string) (uint32, wire.ShardMap, error)
	// Wait answers once the map epoch exceeds after, or with the current map
	// when the long-poll bound (WatchWait) passes first.
	Wait(ctx context.Context, after uint64) (wire.ShardMap, error)
	// ReassignLeader moves a shard's leadership to node: the map it leaves.
	ReassignLeader(shard, node uint32) (wire.ShardMap, error)
}

// Remote is the shard-map service at addr, reached over the SHARDMAP_*
// opcodes (Serve, or a seed-hosting votmd node).
type Remote struct {
	addr  string
	watch peer // the parked long-poll connection
}

// NewRemote returns the seed at addr; it dials on first use.
func NewRemote(addr string) *Remote {
	return &Remote{addr: addr, watch: peer{addr: addr, timeout: WatchWait + ctlTimeout}}
}

// do makes one control exchange on a connection of its own: control traffic
// is rare, and the parked watch must not serialize with it.
func (r *Remote) do(req *wire.Request) (*wire.Response, error) {
	p := &peer{addr: r.addr, timeout: ctlTimeout}
	defer p.close()
	return p.do(context.Background(), req)
}

func (r *Remote) Join(addr string) (uint32, wire.ShardMap, error) {
	resp, err := r.do(&wire.Request{Op: wire.OpShardMapJoin, Value: []byte(addr)})
	if err != nil {
		return 0, wire.ShardMap{}, err
	}
	if resp.Cursor > uint64(^uint32(0)) {
		return 0, wire.ShardMap{}, fmt.Errorf("cluster: seed assigned out-of-range node id %d", resp.Cursor)
	}
	return uint32(resp.Cursor), resp.Map, nil
}

// Wait runs one SHARDMAP_WATCH on the parked connection.
func (r *Remote) Wait(ctx context.Context, after uint64) (wire.ShardMap, error) {
	resp, err := r.watch.do(ctx, &wire.Request{Op: wire.OpShardMapWatch, Key: after})
	if err != nil {
		return wire.ShardMap{}, err
	}
	return resp.Map, nil
}

func (r *Remote) ReassignLeader(shard, node uint32) (wire.ShardMap, error) {
	resp, err := r.do(&wire.Request{Op: wire.OpShardMapUpdate, Shard: shard, Key: uint64(node)})
	if err != nil {
		return wire.ShardMap{}, err
	}
	return resp.Map, nil
}

const (
	// dialTimeout bounds every dial of the plane (a shorter exchange
	// timeout bounds it further).
	dialTimeout = 2 * time.Second
	// ctlTimeout bounds a control exchange: with the seed, or of a handoff.
	ctlTimeout = 5 * time.Second
)

// errPeerClosed fails the exchanges of a closed peer.
var errPeerClosed = errors.New("cluster: peer closed")

// peer is a request/response connection to another node, the one way the
// plane exchanges frames. It dials on first use, numbers each request, bounds
// each exchange by timeout, and counts a non-OK status as an error; any error
// drops the connection, and the next exchange redials. One exchange runs at a
// time; ctx ending, drop and close (from any goroutine) unblock it.
type peer struct {
	addr    string
	timeout time.Duration

	mu sync.Mutex // held across an exchange
	br *bufio.Reader
	id uint32

	cmu    sync.Mutex // guards c and closed
	c      net.Conn
	closed bool
}

func (p *peer) do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cmu.Lock()
	c, closed := p.c, p.closed
	p.cmu.Unlock()
	if closed {
		return nil, errPeerClosed
	}
	if c == nil {
		nc, err := net.DialTimeout("tcp", p.addr, min(p.timeout, dialTimeout))
		if err != nil {
			return nil, err
		}
		p.cmu.Lock()
		if p.closed {
			p.cmu.Unlock()
			_ = nc.Close()
			return nil, errPeerClosed
		}
		p.c, c = nc, nc
		p.cmu.Unlock()
		p.br = bufio.NewReader(nc)
	}
	if ctx.Done() != nil {
		// Registered once c is live: a ctx already ended drops it at once.
		defer context.AfterFunc(ctx, p.drop)()
	}
	p.id++
	req.ID = p.id
	_ = c.SetDeadline(time.Now().Add(p.timeout))
	var resp *wire.Response
	err := wire.WriteRequest(c, req)
	if err == nil {
		if resp, err = wire.ReadResponse(p.br); err == nil {
			err = resp.Err()
		}
	}
	if err != nil {
		p.drop()
		return nil, err
	}
	return resp, nil
}

// drop closes the live connection, if any; the next exchange redials.
func (p *peer) drop() {
	p.cmu.Lock()
	defer p.cmu.Unlock()
	if p.c != nil {
		_ = p.c.Close()
		p.c = nil
	}
}

// close drops the connection for good: every later exchange fails.
func (p *peer) close() {
	p.cmu.Lock()
	p.closed = true
	p.cmu.Unlock()
	p.drop()
}
