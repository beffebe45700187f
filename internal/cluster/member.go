// Member: a votmd node's cluster membership. It joins the shard-map service,
// learns which wire shards it leads or follows, answers data requests for
// foreign shards with a typed WRONG_SHARD redirect carrying its route epoch,
// and keeps its roles reconciled against the map through a watch loop. The
// replication data plane — WAL-stream senders, follower apply, live handoff —
// is in replication.go.
//
// Role authority is the shard map, full stop: a node changes its own role
// only by observing a map it did not write (watch reconciliation), with two
// deliberate exceptions for promptness — the handoff source demotes itself
// the moment the reassignment commits at the seed, and the handoff target
// promotes itself on the HANDOFF commit frame. Both write the same state
// the next watch delivery would.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"votm/internal/server"
	"votm/wire"
)

// Config is a member's cluster settings: votmd's five cluster flags and its
// logger.
type Config struct {
	// Seed makes the node host the shard-map service on its data listener and
	// join it in process: the first seed-hosted node leads every shard.
	// Mutually exclusive with Join.
	Seed bool
	// Join is the seed's address; a non-empty value joins that cluster.
	Join string
	// Replicas is the desired follower count per shard, honored by the
	// hosted service (Seed only). Default 1.
	Replicas int
	// Advertise is the address other nodes and routing clients reach this
	// node at. Required.
	Advertise string
	// ReplTimeout bounds the leader's semi-synchronous wait for follower
	// acknowledgement after a group's fsync; a follower that misses it is
	// detached (logged) and no longer blocks commits until it catches up.
	// Default 2s.
	ReplTimeout time.Duration
	// Logf, when non-nil, receives the member's log lines.
	Logf func(format string, args ...any)
}

// role is a node's relationship to one wire shard.
type role uint32

const (
	roleNone     role = iota // neither leads nor follows the shard
	roleFollower             // replicates the shard's WAL stream
	roleLeader               // serves the shard's data ops
)

// shardState is one wire shard's cluster state on this node.
type shardState struct {
	role     atomic.Uint32 // role
	epoch    atomic.Uint64 // route epoch of the last observed placement change
	handoffs atomic.Uint64

	// mu guards the leader-side follower senders; see replication.go for
	// the lock order.
	mu        sync.Mutex
	followers map[uint32]*replica
	waiting   []*replica // WaitReplicated's scratch: only the shard's flusher calls it

	// installing marks a handoff install in progress (between BEGIN and
	// COMMIT); guarded by the shard's WAL lock.
	installing bool
}

func (st *shardState) leads() bool { return role(st.role.Load()) == roleLeader }

// Member is a votmd node's membership in a cluster: the server.Cluster
// behind the server's seam.
type Member struct {
	cfg  Config
	logf func(string, ...any)
	seed Seed     // where the map lives
	svc  *Service // non-nil when this node hosts the map

	shards []*server.Shard
	states []*shardState
	// started publishes shards and states: startup recovery appends (and so
	// tees) before Start, when there are no followers to feed.
	started atomic.Bool

	nodeID atomic.Uint32
	epoch  atomic.Uint64 // last reconciled map epoch
	mapMu  sync.Mutex
	m      wire.ShardMap // last reconciled map (deep copy, never aliased)

	ctx      context.Context // ends at StopControl
	stop     context.CancelFunc
	stopOnce sync.Once
	wg       sync.WaitGroup
	senderWG sync.WaitGroup
}

// NewMember checks cfg and returns a member for server.Config.Cluster.
func NewMember(cfg Config) (*Member, error) {
	switch {
	case cfg.Seed == (cfg.Join != ""):
		return nil, errors.New("cluster: a member either hosts the map (Seed) or joins a seed (Join)")
	case cfg.Advertise == "":
		return nil, errors.New("cluster: a member needs an advertised address")
	case cfg.Replicas < 0:
		return nil, fmt.Errorf("cluster: Replicas must not be negative, got %d", cfg.Replicas)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.ReplTimeout <= 0 {
		cfg.ReplTimeout = 2 * time.Second
	}
	m := &Member{cfg: cfg, logf: cfg.Logf}
	if m.logf == nil {
		m.logf = func(string, ...any) {}
	}
	if !cfg.Seed {
		m.seed = NewRemote(cfg.Join)
	}
	m.ctx, m.stop = context.WithCancel(context.Background())
	return m, nil
}

// Start joins the cluster and launches the watch loop. The server calls it
// at the end of New, after the workers exist: reconciliation may start
// senders, which capture state through the same paths the workers use.
func (m *Member) Start(shards []*server.Shard) error {
	m.shards = shards
	for range shards {
		m.states = append(m.states, &shardState{followers: make(map[uint32]*replica)})
	}
	m.started.Store(true)
	if m.cfg.Seed {
		m.svc = NewService(len(shards), m.cfg.Replicas, m.logf)
		m.svc.StartHealth(HealthEvery, HealthFailures, HealthTimeout)
		m.seed = m.svc
	}
	id, mp, err := m.join()
	if err != nil {
		return fmt.Errorf("cluster: join: %w", err)
	}
	if len(mp.Shards) != len(shards) {
		return fmt.Errorf("cluster: the map has %d shards, this node is configured for %d", len(mp.Shards), len(shards))
	}
	m.nodeID.Store(id)
	m.logf("votmd: joined cluster as node %d (%s), map epoch %d", id, m.cfg.Advertise, mp.Epoch)
	m.reconcile(mp)
	m.wg.Add(1)
	go m.watchLoop()
	return nil
}

// join registers with the seed, retrying briefly so a node racing its seed's
// startup still comes up.
func (m *Member) join() (id uint32, mp wire.ShardMap, err error) {
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			select {
			case <-m.ctx.Done():
				return 0, mp, errors.New("shutting down")
			case <-time.After(250 * time.Millisecond):
			}
		}
		if id, mp, err = m.seed.Join(m.cfg.Advertise); err == nil {
			return id, mp, nil
		}
	}
	return 0, mp, err
}

// watchLoop tracks the shard map: one bounded long poll after another.
func (m *Member) watchLoop() {
	defer m.wg.Done()
	backoff := 100 * time.Millisecond
	for {
		mp, err := m.seed.Wait(m.ctx, m.epoch.Load())
		if m.ctx.Err() != nil {
			return
		}
		if err != nil {
			select {
			case <-m.ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, 2*time.Second)
			continue
		}
		backoff = 100 * time.Millisecond
		m.setMap(mp)
	}
}

// reconcile applies one observed map: per shard, set this node's role and
// keep the follower senders matched to the replica set. Join assignment,
// handoff commits and death promotions all arrive through here — a follower
// promoted by the seed (leader death) simply finds itself the leader and
// starts serving what it has been replicating all along.
func (m *Member) reconcile(mp wire.ShardMap) {
	me := m.nodeID.Load()
	m.mapMu.Lock()
	m.m = mp
	m.mapMu.Unlock()
	m.epoch.Store(mp.Epoch)
	for i, st := range m.states {
		r := mp.Route(uint32(i))
		if r == nil {
			continue
		}
		st.epoch.Store(r.Epoch)
		switch {
		case r.Leader == me:
			if role(st.role.Swap(uint32(roleLeader))) != roleLeader {
				m.logf("votmd: shard %d: this node now leads (epoch %d)", i, r.Epoch)
				m.shards[i].CommitHeld()
			}
			m.ensureSenders(i, r.Replicas, &mp)
		case containsNode(r.Replicas, me):
			if role(st.role.Swap(uint32(roleFollower))) != roleFollower {
				m.logf("votmd: shard %d: this node now follows node %d (epoch %d)", i, r.Leader, r.Epoch)
			}
			m.stopShardSenders(i)
		default:
			st.role.Store(uint32(roleNone))
			m.stopShardSenders(i)
		}
	}
}

// setMap installs a map newer than the last reconciled one: a watch delivery,
// or a reassignment's answer that need not wait for the watch.
func (m *Member) setMap(mp wire.ShardMap) {
	if mp.Epoch > m.epoch.Load() {
		m.reconcile(mp)
	}
}

// nodeAddr resolves a node id against the reconciled map.
func (m *Member) nodeAddr(id uint32) (string, bool) {
	m.mapMu.Lock()
	defer m.mapMu.Unlock()
	n := m.m.Node(id)
	if n == nil {
		return "", false
	}
	return n.Addr, true
}

// reassign moves a shard's leadership at the seed (the handoff commit
// point) and returns the shard's new route epoch.
func (m *Member) reassign(shardID int, node uint32) (uint64, error) {
	mp, err := m.seed.ReassignLeader(uint32(shardID), node)
	if err != nil {
		return 0, err
	}
	r := mp.Route(uint32(shardID))
	if r == nil {
		return 0, fmt.Errorf("reassignment response has no route for shard %d", shardID)
	}
	m.setMap(mp)
	return r.Epoch, nil
}

// StopControl shuts down the control plane: the hosted service (failing
// pending watches) and this node's own watch loop, whose parked connection
// the cancelled context drops. The replication senders stay up — the drain
// still commits.
func (m *Member) StopControl() {
	m.stopOnce.Do(func() {
		m.stop()
		if m.svc != nil {
			m.svc.Close()
		}
		m.wg.Wait()
	})
}

// StopSenders retires every replication sender; the server calls it once
// the workers are quiescent (nothing appends anymore).
func (m *Member) StopSenders() {
	for i := range m.states {
		m.stopShardSenders(i)
	}
	m.senderWG.Wait()
}

// Gate intercepts cluster opcodes and gates data ops by role. Map ops are
// answered here — a watch off the reader (Serve) — and stream ops go to
// their shard's worker (Stream).
func (m *Member) Gate(req *wire.Request, resp *wire.Response) server.Verdict {
	switch req.Op {
	case wire.OpShardMapGet, wire.OpShardMapJoin, wire.OpShardMapUpdate, wire.OpShardMapWatch:
		switch {
		case m.svc == nil:
			return answer(resp, wire.StatusBadRequest, "not the shard-map seed")
		case req.Op == wire.OpShardMapWatch:
			return server.GateServe
		}
		HandleMapOp(m.svc, req, resp)
		return server.GateAnswered
	case wire.OpReplicate, wire.OpHandoff:
		if int(req.Shard) >= len(m.states) {
			return answer(resp, wire.StatusBadRequest, fmt.Sprintf("shard %d out of range", req.Shard))
		}
		return server.GateStream
	case wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpCAS:
		return m.gate(resp, wire.ShardOf(req.Key, len(m.states)))
	case wire.OpAtomic:
		// Every involved wire shard must be led here: the batch's atomicity
		// is node-local. Cross-node batches are a client-side routing error
		// (the cluster client refuses them up front).
		var maxEpoch uint64
		for _, sub := range req.Subs {
			i := wire.ShardOf(sub.Key, len(m.states))
			if m.shards[i].Moving().Load() {
				return answer(resp, wire.StatusBusy, "shard handoff in progress")
			}
			if st := m.states[i]; !st.leads() {
				maxEpoch = max(maxEpoch, st.epoch.Load())
			}
		}
		if maxEpoch > 0 {
			return wrongShard(resp, maxEpoch)
		}
	case wire.OpScan:
		// A SCAN page consults every shard; it is served only by a node
		// leading all of them (a single-node cluster, or before any handoff).
		for i := range m.states {
			if v := m.gate(resp, i); v != server.GatePass {
				return v
			}
		}
	}
	return server.GatePass
}

// gate passes a data op on shard i only if this node leads it and no handoff
// quiesces it.
func (m *Member) gate(resp *wire.Response, i int) server.Verdict {
	switch st := m.states[i]; {
	case m.shards[i].Moving().Load():
		return answer(resp, wire.StatusBusy, "shard handoff in progress")
	case !st.leads():
		return wrongShard(resp, st.epoch.Load())
	}
	return server.GatePass
}

// Serve answers the map op Gate sent off the reader: a watch's long poll.
func (m *Member) Serve(req *wire.Request, resp *wire.Response) { HandleMapOp(m.svc, req, resp) }

// answer fills resp with status and detail.
func answer(resp *wire.Response, status wire.Status, detail string) server.Verdict {
	resp.Status = status
	resp.SetDetail(detail)
	return server.GateAnswered
}

// wrongShard fills resp with a redirect stamped with the route epoch.
func wrongShard(resp *wire.Response, epoch uint64) server.Verdict {
	resp.Status = wire.StatusWrongShard
	resp.Value = wire.WrongShardDetail(resp.Value[:0], epoch)
	return server.GateAnswered
}

// Stats reports wire shard id's handoffs, and under leadership its
// acked-follower watermark and replica lag: the minimum acked sequence across
// the shard's attached followers, and how many records the slowest one
// trails the log.
func (m *Member) Stats(id int, out *wire.ShardStats) {
	st := m.states[id]
	out.Handoffs = st.handoffs.Load()
	if !st.leads() {
		return
	}
	st.mu.Lock()
	minAcked, first := uint64(0), true
	for _, r := range st.followers {
		if a := r.acked.Load(); first || a < minAcked {
			minAcked, first = a, false
		}
	}
	st.mu.Unlock()
	if first {
		return
	}
	out.FollowerAcks = minAcked
	if last := m.shards[id].NextSeq() - 1; last > minAcked {
		out.ReplicaLagRecords = last - minAcked
	}
}
