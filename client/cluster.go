package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"votm/wire"
)

// ClusterError is a routing failure against a votmd cluster: the wrapped
// error (match with errors.Is — e.g. wire.ErrWrongShard when redirect
// retries ran out) plus the newest shard-map epoch the cluster reported,
// so callers can tell a stale-map loop from a dead shard.
type ClusterError struct {
	// Epoch is the highest map epoch observed while the request failed
	// (from WRONG_SHARD detail bytes or a refetched map); 0 if unknown.
	Epoch uint64
	Err   error
}

func (e *ClusterError) Error() string {
	return fmt.Sprintf("client: cluster routing failed at epoch %d: %v", e.Epoch, e.Err)
}

func (e *ClusterError) Unwrap() error { return e.Err }

// errStaleMap is wrapped into a ClusterError when redirect retries run out
// without ever reaching a node that leads the shard.
var errStaleMap = errors.New("client: shard map still stale after refetch")

// Cluster is a routing client for a votmd cluster. It learns the
// epoch-versioned shard map from a seed node (any cluster member serves
// it), opens one pooled Client per node, and routes each request to the
// leader of its key's shard. A WRONG_SHARD redirect (the map moved under
// us — e.g. a live handoff) triggers a map refetch and a bounded retry,
// reusing the same jittered backoff the BUSY retry path uses; the caller
// never sees a redirect unless retries are exhausted.
//
// Safe for concurrent use.
type Cluster struct {
	seed string
	opts Options

	mu      sync.Mutex
	m       wire.ShardMap
	clients map[string]*Client // keyed by advertised node address
	closed  bool

	refreshMu sync.Mutex // serializes map refetches (single-flight)
}

// DialCluster fetches the shard map from seedAddr (any cluster node, or a
// standalone `votmd -cluster-seed` process) and returns a routing client.
// Options apply to every per-node connection pool; Options.MapRetries
// bounds WRONG_SHARD redirect retries.
func DialCluster(seedAddr string, opts Options) (*Cluster, error) {
	cl := &Cluster{
		seed:    seedAddr,
		opts:    opts.withDefaults(),
		clients: make(map[string]*Client),
	}
	ctx, cancel := context.WithTimeout(context.Background(), cl.opts.DialTimeout)
	defer cancel()
	m, err := cl.fetchMap(ctx, 0)
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("client: shard map from seed %s: %w", seedAddr, err)
	}
	cl.setMap(m)
	return cl, nil
}

// Close closes every per-node connection pool.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil
	}
	cl.closed = true
	for _, c := range cl.clients {
		_ = c.Close()
	}
	return nil
}

// Epoch returns the epoch of the client's current shard map.
func (cl *Cluster) Epoch() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.m.Epoch
}

// Map returns a shallow copy of the client's current shard map.
func (cl *Cluster) Map() wire.ShardMap {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.m
}

// Get returns the value stored under key (ErrNotFound when absent).
func (cl *Cluster) Get(ctx context.Context, key uint64) ([]byte, error) {
	resp, err := cl.doKey(ctx, key, &wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Put sets key to val, reporting whether the key was created (vs updated).
func (cl *Cluster) Put(ctx context.Context, key uint64, val []byte) (created bool, err error) {
	resp, err := cl.doKey(ctx, key, &wire.Request{Op: wire.OpPut, Key: key, Value: val})
	if err != nil {
		return false, err
	}
	return resp.Created, nil
}

// Delete removes key (ErrNotFound when absent).
func (cl *Cluster) Delete(ctx context.Context, key uint64) error {
	_, err := cl.doKey(ctx, key, &wire.Request{Op: wire.OpDelete, Key: key})
	return err
}

// CAS replaces key's value with newVal iff its current value equals expect.
func (cl *Cluster) CAS(ctx context.Context, key uint64, expect, newVal []byte) error {
	_, err := cl.doKey(ctx, key, &wire.Request{Op: wire.OpCAS, Key: key, OldValue: expect, Value: newVal})
	return err
}

// Atomic executes subs as one transaction. Every key must route to shards
// led by the same node — a node executes a multi-shard batch as one
// multi-view transaction, but the cluster does not run transactions across
// nodes. A batch spanning leaders fails with wire.ErrCrossShard (inside a
// ClusterError) without contacting any server.
func (cl *Cluster) Atomic(ctx context.Context, subs []wire.Sub) ([]wire.SubResult, error) {
	resp, err := cl.doRouted(ctx, &wire.Request{Op: wire.OpAtomic, Subs: subs},
		func(m *wire.ShardMap) (string, error) {
			addr := ""
			for i := range subs {
				a, err := leaderAddr(m, shardOfKey(m, subs[i].Key))
				if err != nil {
					return "", err
				}
				if addr == "" {
					addr = a
				} else if a != addr {
					return "", wire.ErrCrossShard
				}
			}
			if addr == "" {
				return "", wire.ErrBadRequest
			}
			return addr, nil
		})
	if err != nil {
		return nil, err
	}
	return resp.Subs, nil
}

// Add atomically adds delta to the counter at key (see Client.Add).
func (cl *Cluster) Add(ctx context.Context, key, delta uint64) (uint64, error) {
	subs, err := cl.Atomic(ctx, []wire.Sub{{Kind: wire.SubAdd, Key: key, Delta: delta}})
	if err != nil {
		return 0, err
	}
	if len(subs) != 1 {
		return 0, fmt.Errorf("client: ADD returned %d results", len(subs))
	}
	return subs[0].Sum, nil
}

// Scan iterates [start, end) in key order. A SCAN consults every shard, so
// it is servable only while a single node leads all of them; otherwise
// Scan fails with wire.ErrCrossShard (inside a ClusterError). A handoff
// that splits leadership mid-scan surfaces as an error from the Scanner.
func (cl *Cluster) Scan(start, end uint64, opts ScanOptions) (*Scanner, error) {
	cl.mu.Lock()
	m := cl.m
	cl.mu.Unlock()
	addr := ""
	for i := range m.Shards {
		a, err := leaderAddr(&m, m.Shards[i].Shard)
		if err != nil {
			return nil, &ClusterError{Epoch: m.Epoch, Err: err}
		}
		if addr == "" {
			addr = a
		} else if a != addr {
			return nil, &ClusterError{Epoch: m.Epoch, Err: wire.ErrCrossShard}
		}
	}
	if addr == "" {
		return nil, &ClusterError{Epoch: m.Epoch, Err: errStaleMap}
	}
	c, err := cl.nodeClient(addr)
	if err != nil {
		return nil, err
	}
	return c.Scan(start, end, opts), nil
}

// Stats fetches shard statistics from the leader of the given shard
// (wire.AllShards asks the seed-map's first node for all of its shards).
func (cl *Cluster) Stats(ctx context.Context, shard uint32) ([]wire.ShardStats, error) {
	req := &wire.Request{Op: wire.OpStats, Shard: shard}
	resp, err := cl.doRouted(ctx, req, func(m *wire.ShardMap) (string, error) {
		if shard == wire.AllShards {
			if len(m.Nodes) == 0 {
				return "", errStaleMap
			}
			return m.Nodes[0].Addr, nil
		}
		return leaderAddr(m, shard)
	})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// doKey routes a single-key request to the leader of the key's shard.
func (cl *Cluster) doKey(ctx context.Context, key uint64, req *wire.Request) (*wire.Response, error) {
	return cl.doRouted(ctx, req, func(m *wire.ShardMap) (string, error) {
		return leaderAddr(m, shardOfKey(m, key))
	})
}

// doRouted picks a node from the current map, sends, and absorbs routing
// failures: a WRONG_SHARD redirect or a transport error triggers a map
// refetch and a retry with jittered backoff, up to Options.MapRetries
// times. Typed protocol errors other than WRONG_SHARD pass straight
// through — they are the caller's, not the router's.
func (cl *Cluster) doRouted(ctx context.Context, req *wire.Request, pick func(*wire.ShardMap) (string, error)) (*wire.Response, error) {
	backoff := cl.opts.BusyBackoff
	var lastEpoch uint64 // newest epoch observed anywhere (for ClusterError)
	var needEpoch uint64 // refetch target: 0 = any fresh map, else Epoch >= needEpoch
	for attempt := 0; ; attempt++ {
		cl.mu.Lock()
		m := cl.m
		cl.mu.Unlock()
		if m.Epoch > lastEpoch {
			lastEpoch = m.Epoch
		}

		addr, perr := pick(&m)
		var resp *wire.Response
		var err error
		if perr != nil {
			err = perr
		} else {
			var c *Client
			if c, err = cl.nodeClient(addr); err == nil {
				resp, err = c.do(ctx, req)
			}
		}
		if err == nil {
			return resp, nil
		}

		var retry bool
		var werr *wire.Error
		switch {
		case errors.Is(err, wire.ErrCrossShard):
			// A cross-leader batch stays cross-leader under any refetch the
			// caller didn't ask for; fail fast with the map we used.
			return nil, &ClusterError{Epoch: lastEpoch, Err: wire.ErrCrossShard}
		case errors.As(err, &werr) && werr.Status == wire.StatusWrongShard:
			// The node redirected us; its detail carries its own map epoch.
			// Ahead of ours: our map is stale — refetch at least that epoch.
			// Behind ours: the node is catching up (e.g. a handoff target
			// that has not seen its promotion yet) — any fresh map plus a
			// backoff is enough, don't long-poll for an epoch that may never
			// come.
			e := wire.WrongShardEpoch(werr.Detail)
			switch {
			case e > m.Epoch:
				needEpoch = e
			case e == m.Epoch:
				needEpoch = e + 1 // node disagrees with our same-epoch map
			default:
				needEpoch = 0
			}
			if e > lastEpoch {
				lastEpoch = e
			}
			retry = true
		case errors.Is(err, ErrClosed), errors.Is(err, context.Canceled),
			errors.Is(err, context.DeadlineExceeded):
			return nil, err
		case errors.As(err, &werr):
			// Any other typed status (NOT_FOUND, CAS_MISMATCH, BUSY after the
			// per-node retry budget, ...) is a real answer from the right node.
			return nil, err
		default:
			// Transport failure: the node may be gone. Drop its pool so the
			// next attempt redials, refetch (the map may have moved its
			// shards — any fresh map will do), and retry.
			if addr != "" {
				cl.dropNode(addr)
			}
			needEpoch = 0
			retry = true
		}

		if !retry || attempt >= cl.opts.MapRetries {
			if _, ok := err.(*ClusterError); ok {
				return nil, err
			}
			return nil, &ClusterError{Epoch: lastEpoch, Err: err}
		}

		// Jittered backoff (50–150% of nominal), as in the BUSY retry path.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)+1))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
		backoff *= 2

		if m2, ferr := cl.fetchMap(ctx, needEpoch); ferr == nil {
			cl.setMap(m2)
			if m2.Epoch > lastEpoch {
				lastEpoch = m2.Epoch
			}
		}
	}
}

// fetchMap fetches a shard map with Epoch >= minEpoch (minEpoch 0 accepts
// any fresh map). It asks the seed first, then every node of the cached
// map. A node whose map has not reached minEpoch yet is asked to
// long-poll (SHARDMAP_WATCH) within the remaining context budget, so a
// redirect that barely beat the map propagation still resolves.
func (cl *Cluster) fetchMap(ctx context.Context, minEpoch uint64) (wire.ShardMap, error) {
	cl.refreshMu.Lock()
	defer cl.refreshMu.Unlock()

	// Another goroutine may have refreshed while we queued.
	cl.mu.Lock()
	cur := cl.m
	cl.mu.Unlock()
	if minEpoch > 0 && cur.Epoch >= minEpoch {
		return cur, nil
	}

	addrs := []string{cl.seed}
	for i := range cur.Nodes {
		if a := cur.Nodes[i].Addr; a != cl.seed {
			addrs = append(addrs, a)
		}
	}
	var lastErr error = errStaleMap
	for _, addr := range addrs {
		c, err := cl.nodeClient(addr)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.do(ctx, &wire.Request{Op: wire.OpShardMapGet})
		if err == nil && minEpoch > 0 && resp.Map.Epoch < minEpoch {
			// This node hasn't observed the newer epoch yet: wait for it
			// rather than spinning on stale GETs.
			resp, err = c.do(ctx, &wire.Request{Op: wire.OpShardMapWatch, Key: minEpoch - 1})
		}
		if err != nil {
			lastErr = err
			continue
		}
		return resp.Map, nil
	}
	return wire.ShardMap{}, lastErr
}

// setMap installs m if it is newer than the cached map.
func (cl *Cluster) setMap(m wire.ShardMap) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if m.Epoch >= cl.m.Epoch {
		cl.m = m
	}
}

// nodeClient returns the pooled Client for addr, creating it lazily.
// Creation does not dial — the pool dials on first use.
func (cl *Cluster) nodeClient(addr string) (*Client, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, ErrClosed
	}
	if c := cl.clients[addr]; c != nil {
		return c, nil
	}
	c := &Client{addr: addr, opts: cl.opts}
	c.conns = make([]*poolConn, c.opts.PoolSize)
	cl.clients[addr] = c
	return c, nil
}

// dropNode closes and forgets addr's pool; a later request redials.
func (cl *Cluster) dropNode(addr string) {
	cl.mu.Lock()
	c := cl.clients[addr]
	delete(cl.clients, addr)
	cl.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// shardOfKey maps a key to its wire shard under m's shard count, with the
// same placement hash every cluster node uses.
func shardOfKey(m *wire.ShardMap, key uint64) uint32 {
	if len(m.Shards) == 0 {
		return 0
	}
	return uint32(wire.ShardOf(key, len(m.Shards)))
}

// leaderAddr resolves the advertised address of the node leading shard.
func leaderAddr(m *wire.ShardMap, shard uint32) (string, error) {
	rt := m.Route(shard)
	if rt == nil {
		return "", errStaleMap
	}
	n := m.Node(rt.Leader)
	if n == nil || n.Addr == "" {
		return "", errStaleMap
	}
	return n.Addr, nil
}
