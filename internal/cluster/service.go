package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"votm/wire"
)

// ErrServiceClosed is returned by operations on a closed Service.
var ErrServiceClosed = errors.New("cluster: shard-map service closed")

// Service is the shard-map state machine: epoch-versioned shard→node
// assignments plus the mutations the control plane needs (join, leader
// reassignment, node death). It is transport-agnostic — Serve exposes it
// over the wire for standalone seeds, and a votmd node hosting it answers
// the SHARDMAP_* opcodes on its data listener.
//
// Placement policy is deliberately simple: the first joiner leads every
// shard, later joiners fill follower slots round-robin until each shard
// has Replicas followers. Leadership then moves by live handoff
// (ReassignLeader) or death promotion (MarkDead) — load balancing is an
// explicit operation, not an implicit side effect of joining.
type Service struct {
	mu       sync.Mutex
	m        wire.ShardMap
	nextNode uint32
	replicas int
	changed  chan struct{} // closed and replaced on every epoch bump
	done     chan struct{}
	closed   bool
	logf     func(string, ...any)
	wait     time.Duration // Wait's long-poll bound: WatchWait
}

// NewService returns a Service for the given shard count. replicas is the
// desired follower count per shard (0 = no replication); joiners beyond
// what the shards need stay idle until reassigned. logf may be nil.
func NewService(shards, replicas int, logf func(string, ...any)) *Service {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Service{
		m:        wire.ShardMap{Epoch: 1},
		nextNode: 1,
		replicas: replicas,
		changed:  make(chan struct{}),
		done:     make(chan struct{}),
		logf:     logf,
		wait:     WatchWait,
	}
	for i := 0; i < shards; i++ {
		s.m.Shards = append(s.m.Shards, wire.ShardRoute{Shard: uint32(i), Epoch: 1})
	}
	return s
}

// Done is closed when the service shuts down; watch loops select on it.
func (s *Service) Done() <-chan struct{} { return s.done }

// Close fails pending Waits and marks the service closed.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	close(s.changed)
}

// cloneMap deep-copies m so callers never alias the service's state.
func cloneMap(m *wire.ShardMap) wire.ShardMap {
	out := wire.ShardMap{Epoch: m.Epoch}
	out.Nodes = append([]wire.NodeInfo(nil), m.Nodes...)
	out.Shards = make([]wire.ShardRoute, len(m.Shards))
	for i, r := range m.Shards {
		out.Shards[i] = r
		out.Shards[i].Replicas = append([]uint32(nil), r.Replicas...)
	}
	return out
}

// Snapshot returns a copy of the current map.
func (s *Service) Snapshot() wire.ShardMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneMap(&s.m)
}

// Epoch returns the current map epoch.
func (s *Service) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Epoch
}

// bumpLocked advances the epoch and wakes every Wait. Called with mu held.
func (s *Service) bumpLocked() {
	s.m.Epoch++
	close(s.changed)
	s.changed = make(chan struct{})
}

// Wait blocks until the map epoch exceeds after, returning the new map.
// After the long-poll bound (WatchWait) it returns the CURRENT map, and on
// context expiry the current map and the context's error — the bounded
// long-poll shape SHARDMAP_WATCH wants: answer with whatever is current so
// the watcher can re-arm.
func (s *Service) Wait(ctx context.Context, after uint64) (wire.ShardMap, error) {
	bound := time.NewTimer(s.wait)
	defer bound.Stop()
	var err error
	for expired := false; ; {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return wire.ShardMap{}, ErrServiceClosed
		}
		if s.m.Epoch > after || expired {
			m := cloneMap(&s.m)
			s.mu.Unlock()
			return m, err
		}
		ch := s.changed
		s.mu.Unlock()
		select {
		case <-ch:
		case <-bound.C:
			expired = true
		case <-ctx.Done():
			expired, err = true, ctx.Err()
		}
	}
}

// Join registers a node by its advertised address and returns its assigned
// id plus the resulting map. Rejoining with a known address is idempotent
// and returns the existing id. The first joiner becomes leader of every
// unled shard; later joiners fill follower slots until each shard has the
// desired replica count.
func (s *Service) Join(addr string) (uint32, wire.ShardMap, error) {
	if addr == "" {
		return 0, wire.ShardMap{}, errors.New("cluster: join with empty address")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, wire.ShardMap{}, ErrServiceClosed
	}
	for _, n := range s.m.Nodes {
		if n.Addr == addr {
			return n.ID, cloneMap(&s.m), nil
		}
	}
	if len(s.m.Nodes) >= wire.MaxMapNodes {
		return 0, wire.ShardMap{}, fmt.Errorf("cluster: node limit %d reached", wire.MaxMapNodes)
	}
	id := s.nextNode
	s.nextNode++
	s.m.Nodes = append(s.m.Nodes, wire.NodeInfo{ID: id, Addr: addr})
	changed := false
	for i := range s.m.Shards {
		r := &s.m.Shards[i]
		switch {
		case r.Leader == 0:
			r.Leader = id
			changed = true
		case r.Leader != id && len(r.Replicas) < s.replicas:
			r.Replicas = append(r.Replicas, id)
			changed = true
		}
	}
	s.bumpLocked()
	if changed {
		for i := range s.m.Shards {
			if s.m.Shards[i].Leader == id || containsNode(s.m.Shards[i].Replicas, id) {
				s.m.Shards[i].Epoch = s.m.Epoch
			}
		}
	}
	s.logf("cluster: node %d joined at %s (epoch %d)", id, addr, s.m.Epoch)
	return id, cloneMap(&s.m), nil
}

func containsNode(ids []uint32, id uint32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func removeNode(ids []uint32, id uint32) []uint32 {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// ReassignLeader moves a shard's leadership to node, demoting the old
// leader to a follower (it is fully caught up — it WAS the log). Returns
// the map it leaves. Reassigning to the current leader is idempotent.
// This is the commit point of a live handoff: the source calls it once the
// target has acked the full stream.
func (s *Service) ReassignLeader(shard, node uint32) (wire.ShardMap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wire.ShardMap{}, ErrServiceClosed
	}
	var route *wire.ShardRoute
	for i := range s.m.Shards {
		if s.m.Shards[i].Shard == shard {
			route = &s.m.Shards[i]
			break
		}
	}
	if route == nil {
		return wire.ShardMap{}, fmt.Errorf("cluster: no route for shard %d", shard)
	}
	if s.m.Node(node) == nil {
		return wire.ShardMap{}, fmt.Errorf("cluster: unknown node %d", node)
	}
	if route.Leader == node {
		return cloneMap(&s.m), nil
	}
	old := route.Leader
	route.Replicas = removeNode(route.Replicas, node)
	if old != 0 && len(route.Replicas) < wire.MaxShardReplicas {
		route.Replicas = append(route.Replicas, old)
	}
	route.Leader = node
	s.bumpLocked()
	route.Epoch = s.m.Epoch
	s.logf("cluster: shard %d leader %d -> %d (epoch %d)", shard, old, node, s.m.Epoch)
	return cloneMap(&s.m), nil
}

// MarkDead removes a node: every shard it led is promoted to its first
// surviving follower (or left unled when none exists), and the node leaves
// every replica set. No-op for unknown nodes.
func (s *Service) MarkDead(node uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.m.Node(node) == nil {
		return
	}
	s.m.Nodes = func() []wire.NodeInfo {
		out := s.m.Nodes[:0]
		for _, n := range s.m.Nodes {
			if n.ID != node {
				out = append(out, n)
			}
		}
		return out
	}()
	s.bumpLocked()
	for i := range s.m.Shards {
		r := &s.m.Shards[i]
		touched := containsNode(r.Replicas, node)
		r.Replicas = removeNode(r.Replicas, node)
		if r.Leader == node {
			touched = true
			if len(r.Replicas) > 0 {
				r.Leader = r.Replicas[0]
				r.Replicas = r.Replicas[1:]
				s.logf("cluster: shard %d leader %d died, promoted follower %d (epoch %d)",
					r.Shard, node, r.Leader, s.m.Epoch)
			} else {
				r.Leader = 0
				s.logf("cluster: shard %d leader %d died with no follower; shard unled (epoch %d)",
					r.Shard, node, s.m.Epoch)
			}
		}
		if touched {
			r.Epoch = s.m.Epoch
		}
	}
}
