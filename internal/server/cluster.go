// Cluster membership and routing for votmd: each node of a cluster joins
// the shard-map service (internal/cluster), learns which wire-level shards
// it leads or follows, answers data requests for foreign shards with a
// typed WRONG_SHARD redirect carrying its route epoch, and keeps its role
// assignments reconciled against the map via a SHARDMAP_WATCH loop. The
// replication data plane — WAL-stream senders, follower apply, live handoff
// — lives in replication.go.
//
// Role authority is the shard map, full stop: a node changes its own role
// only by observing a map it did not write (watch reconciliation), with two
// deliberate exceptions for promptness — the handoff source demotes itself
// the moment the reassignment commits at the seed, and the handoff target
// promotes itself on the HANDOFF commit frame. Both write the same state
// the next watch delivery would.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"votm/internal/cluster"
	"votm/internal/wal"
	"votm/wire"
)

// clusterRole is a node's relationship to one wire-level shard.
type clusterRole uint32

const (
	// roleNone: this node neither leads nor follows the shard.
	roleNone clusterRole = iota
	// roleFollower: this node replicates the shard's WAL stream.
	roleFollower
	// roleLeader: this node serves the shard's data ops.
	roleLeader
)

// clShard is one wire-level shard's cluster state on this node.
type clShard struct {
	role  atomic.Uint32 // clusterRole
	epoch atomic.Uint64 // route epoch of the last observed placement change
	// moving gates a live handoff: while set, data ops answer BUSY at
	// dispatch AND under walMu inside the workers — the latter is the
	// airtight barrier (every mutation holds walMu, and the handoff capture
	// acquires it after setting moving, so no write can land after the
	// captured state).
	moving   atomic.Bool
	handoffs atomic.Uint64

	// mu guards the leader-side follower senders. Never held together with
	// walMu or the WAL's internal mutex by this code (the tee path takes mu
	// UNDER those; everything else takes mu alone).
	mu        sync.Mutex
	followers map[uint32]*replica

	// redo applies the streamed log to a follower's memory, holding a
	// cross-shard prepare and the records behind it until its decision
	// streams in; guarded by the shard's walMu (REPLICATE apply and handoff
	// installs both hold it).
	redo redoApplier

	// installing marks a handoff install in progress (between BEGIN and
	// COMMIT); guarded by the shard's walMu.
	installing bool
}

// clusterNode is this server's cluster membership state.
type clusterNode struct {
	s         *Server
	advertise string
	seedAddr  string           // non-empty when joining a remote seed
	svc       *cluster.Service // non-nil when this node hosts the map

	nodeID atomic.Uint32
	epoch  atomic.Uint64 // last reconciled map epoch

	mapMu sync.Mutex
	m     wire.ShardMap // last reconciled map (deep copy, never aliased)

	states []*clShard // one per wire-level shard

	stop     chan struct{}
	stopOnce sync.Once
	watchMu  sync.Mutex
	watchC   net.Conn // parked watch connection, closed by stopControl
	wg       sync.WaitGroup
	senderWG sync.WaitGroup
}

func newClusterNode(s *Server) *clusterNode {
	cn := &clusterNode{
		s:         s,
		advertise: s.cfg.ClusterAdvertise,
		seedAddr:  s.cfg.ClusterJoin,
		stop:      make(chan struct{}),
	}
	if s.cfg.ClusterSeed {
		cn.svc = cluster.NewService(s.cfg.Shards, s.cfg.ClusterReplicas, s.logf)
	}
	for i := range s.shards {
		cn.states = append(cn.states, &clShard{followers: make(map[uint32]*replica)})
		cn.states[i].redo.sh = cn.shardFor(i)
	}
	return cn
}

// shardFor returns the serving sub-shard of wire shard id (cluster mode has
// exactly one: splits are rejected with durable configs).
func (cn *clusterNode) shardFor(id int) *shard {
	return (*cn.s.shards[id].subs.Load())[0]
}

// start joins the cluster and launches the watch loop. Called at the end of
// New, after the workers exist (reconciliation may start senders, which
// capture state through the same paths the workers use).
func (cn *clusterNode) start() error {
	var (
		id  uint32
		m   wire.ShardMap
		err error
	)
	if cn.svc != nil {
		id, m, err = cn.svc.Join(cn.advertise)
		if err == nil {
			cn.svc.StartHealth(time.Second, 5, time.Second)
		}
	} else {
		id, m, err = cn.joinRemote()
	}
	if err != nil {
		return fmt.Errorf("server: cluster join: %w", err)
	}
	if len(m.Shards) != len(cn.s.shards) {
		return fmt.Errorf("server: cluster map has %d shards, this node is configured for %d",
			len(m.Shards), len(cn.s.shards))
	}
	cn.nodeID.Store(id)
	cn.s.logf("votmd: joined cluster as node %d (%s), map epoch %d", id, cn.advertise, m.Epoch)
	cn.reconcile(m)
	cn.wg.Add(1)
	go cn.watchLoop()
	return nil
}

// joinRemote registers with the seed over the wire, retrying briefly so a
// node racing its seed's startup still comes up.
func (cn *clusterNode) joinRemote() (uint32, wire.ShardMap, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			select {
			case <-cn.stop:
				return 0, wire.ShardMap{}, errors.New("shutting down")
			case <-time.After(250 * time.Millisecond):
			}
		}
		resp, err := cn.seedDo(&wire.Request{Op: wire.OpShardMapJoin, ID: 1, Value: []byte(cn.advertise)})
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Cursor > uint64(^uint32(0)) {
			return 0, wire.ShardMap{}, fmt.Errorf("seed assigned out-of-range node id %d", resp.Cursor)
		}
		return uint32(resp.Cursor), resp.Map, nil
	}
	return 0, wire.ShardMap{}, lastErr
}

// seedDo performs one request/response against the seed on a fresh
// connection. Control-plane traffic is rare; a dial per call keeps the
// long-polling watch connection from serializing with it.
// seedDialTimeout bounds control-plane dials against the seed.
const seedDialTimeout = 2 * time.Second

func (cn *clusterNode) seedDo(req *wire.Request) (*wire.Response, error) {
	c, err := net.DialTimeout("tcp", cn.seedAddr, seedDialTimeout)
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteRequest(c, req); err != nil {
		return nil, err
	}
	resp, err := wire.ReadResponse(c)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// watchLoop tracks the shard map: in-process Waits when this node hosts the
// service, wire SHARDMAP_WATCH long-polls against the seed otherwise.
func (cn *clusterNode) watchLoop() {
	defer cn.wg.Done()
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-cn.stop:
			return
		default:
		}
		var (
			m   wire.ShardMap
			err error
		)
		if cn.svc != nil {
			// Bounded like the wire watch: an idle wait re-arms every
			// WatchWait so shutdown is never more than one window away.
			ctx, cancel := context.WithTimeout(context.Background(), cluster.WatchWait)
			m, err = cn.svc.Wait(ctx, cn.epoch.Load())
			cancel()
			if errors.Is(err, cluster.ErrServiceClosed) {
				return
			}
			// Context expiry still returns the current map: re-arm either way.
			err = nil
		} else {
			m, err = cn.watchRemote()
		}
		if err != nil {
			select {
			case <-cn.stop:
				return
			case <-time.After(backoff):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 100 * time.Millisecond
		if m.Epoch > cn.epoch.Load() {
			cn.reconcile(m)
		}
	}
}

// watchRemote runs one bounded SHARDMAP_WATCH long-poll against the seed,
// reusing a parked connection across polls.
func (cn *clusterNode) watchRemote() (wire.ShardMap, error) {
	cn.watchMu.Lock()
	c := cn.watchC
	cn.watchMu.Unlock()
	if c == nil {
		var err error
		c, err = net.DialTimeout("tcp", cn.seedAddr, seedDialTimeout)
		if err != nil {
			return wire.ShardMap{}, err
		}
		cn.watchMu.Lock()
		select {
		case <-cn.stop:
			cn.watchMu.Unlock()
			_ = c.Close()
			return wire.ShardMap{}, errors.New("shutting down")
		default:
		}
		cn.watchC = c
		cn.watchMu.Unlock()
	}
	drop := func(err error) (wire.ShardMap, error) {
		cn.watchMu.Lock()
		if cn.watchC == c {
			cn.watchC = nil
		}
		cn.watchMu.Unlock()
		_ = c.Close()
		return wire.ShardMap{}, err
	}
	_ = c.SetDeadline(time.Now().Add(cluster.WatchWait + 5*time.Second))
	if err := wire.WriteRequest(c, &wire.Request{Op: wire.OpShardMapWatch, ID: 1, Key: cn.epoch.Load()}); err != nil {
		return drop(err)
	}
	resp, err := wire.ReadResponse(c)
	if err != nil {
		return drop(err)
	}
	if err := resp.Err(); err != nil {
		return drop(err)
	}
	return resp.Map, nil
}

// reconcile applies one observed map: per shard, set this node's role and
// keep the follower senders matched to the replica set. Join assignment,
// handoff commits and death promotions all arrive through here — a follower
// promoted by the seed (leader death) simply finds itself the leader and
// starts serving what it has been replicating all along.
func (cn *clusterNode) reconcile(m wire.ShardMap) {
	me := cn.nodeID.Load()
	cn.mapMu.Lock()
	cn.m = m
	cn.mapMu.Unlock()
	cn.epoch.Store(m.Epoch)
	for i, st := range cn.states {
		r := m.Route(uint32(i))
		if r == nil {
			continue
		}
		st.epoch.Store(r.Epoch)
		switch {
		case r.Leader == me:
			if clusterRole(st.role.Swap(uint32(roleLeader))) != roleLeader {
				cn.s.logf("votmd: shard %d: this node now leads (epoch %d)", i, r.Epoch)
				cn.commitHeld(i)
			}
			cn.ensureSenders(i, r.Replicas, &m)
		case containsID(r.Replicas, me):
			if clusterRole(st.role.Swap(uint32(roleFollower))) != roleFollower {
				cn.s.logf("votmd: shard %d: this node now follows node %d (epoch %d)", i, r.Leader, r.Epoch)
			}
			cn.stopShardSenders(i)
		default:
			st.role.Store(uint32(roleNone))
			cn.stopShardSenders(i)
		}
	}
}

// commitHeld settles what a promoted follower still holds: its leader died
// before a round's annotation streamed — or overlapped rounds', a later
// prepare held in the first one's suffix, so it commits until nothing is held.
// The leader acknowledged the held records only once the round's flush
// succeeded and answered TxFault (outcome unknown) if it failed, so committing
// loses nothing acknowledged; the annotations make the log self-contained.
func (cn *clusterNode) commitHeld(shardID int) {
	sh, a := cn.shardFor(shardID), &cn.states[shardID].redo
	sh.walMu.Lock()
	defer sh.walMu.Unlock()
	if a.xid == 0 {
		return
	}
	th := cn.s.rt.RegisterThread()
	defer th.Release()
	for a.xid != 0 {
		if _, err := a.decide(context.Background(), th, wal.RecCommit); err != nil {
			cn.s.noteShardWALFault(sh, err)
			return
		}
	}
}

func containsID(ids []uint32, id uint32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// currentEpoch is the freshest map epoch this node has observed.
func (cn *clusterNode) currentEpoch() uint64 { return cn.epoch.Load() }

// setMap installs a map this node obtained out-of-band (a reassignment
// response) without waiting for the watch delivery.
func (cn *clusterNode) setMap(m wire.ShardMap) {
	if m.Epoch > cn.epoch.Load() {
		cn.reconcile(m)
	}
}

// nodeAddr resolves a node id against the reconciled map.
func (cn *clusterNode) nodeAddr(id uint32) (string, bool) {
	cn.mapMu.Lock()
	defer cn.mapMu.Unlock()
	n := cn.m.Node(id)
	if n == nil {
		return "", false
	}
	return n.Addr, true
}

// reassign moves a shard's leadership at the seed (the handoff commit
// point) and returns the shard's new route epoch.
func (cn *clusterNode) reassign(shardID int, node uint32) (uint64, error) {
	if cn.svc != nil {
		epoch, err := cn.svc.ReassignLeader(uint32(shardID), node)
		if err != nil {
			return 0, err
		}
		cn.setMap(cn.svc.Snapshot())
		return epoch, nil
	}
	resp, err := cn.seedDo(&wire.Request{Op: wire.OpShardMapUpdate, ID: 1, Shard: uint32(shardID), Key: uint64(node)})
	if err != nil {
		return 0, err
	}
	r := resp.Map.Route(uint32(shardID))
	if r == nil {
		return 0, fmt.Errorf("reassignment response has no route for shard %d", shardID)
	}
	cn.setMap(resp.Map)
	return r.Epoch, nil
}

// stopControl shuts down the control plane: the hosted service (failing
// pending watches), this node's own watch loop, and any parked watch
// connection. The replication senders stay up — the drain still commits.
func (cn *clusterNode) stopControl() {
	cn.stopOnce.Do(func() {
		close(cn.stop)
		if cn.svc != nil {
			cn.svc.Close()
		}
		cn.watchMu.Lock()
		if cn.watchC != nil {
			_ = cn.watchC.Close()
			cn.watchC = nil
		}
		cn.watchMu.Unlock()
		cn.wg.Wait()
	})
}

// stopSenders retires every replication sender; called once the workers are
// quiescent (nothing appends anymore).
func (cn *clusterNode) stopSenders() {
	for i := range cn.states {
		cn.stopShardSenders(i)
	}
	cn.senderWG.Wait()
}

// dispatch intercepts cluster opcodes and gates data ops by role; it
// returns true when the request was fully handled here, answered in resp.
// Runs on the connection read goroutine, before validate — cluster frames
// carry WAL payloads, not client values.
func (cn *clusterNode) dispatch(c *conn, req *wire.Request, resp *wire.Response) bool {
	s := cn.s
	wrongShard := func(epoch uint64) {
		resp.Value = wire.WrongShardDetail(resp.Value[:0], epoch)
		c.reply(req, resp, wire.StatusWrongShard, "")
	}

	switch req.Op {
	case wire.OpShardMapGet, wire.OpShardMapJoin, wire.OpShardMapUpdate:
		if cn.svc == nil {
			c.reply(req, resp, wire.StatusBadRequest, "not the shard-map seed")
			return true
		}
		cluster.HandleMapOp(cn.svc, req, resp)
		c.reply(req, resp, resp.Status, "")
		return true
	case wire.OpShardMapWatch:
		if cn.svc == nil {
			c.reply(req, resp, wire.StatusBadRequest, "not the shard-map seed")
			return true
		}
		// The long-poll must not stall the read loop. It is charged to the
		// connection like a queued request, so the connection's drain
		// registration outlives it; the drain does not wait out WatchWait, as
		// Shutdown first closes the service, answering every watch SHUTDOWN.
		c.charge()
		go func() {
			cluster.HandleMapOp(cn.svc, req, resp)
			s.finish(task{req: req, resp: resp, c: c})
		}()
		return true
	case wire.OpReplicate, wire.OpHandoff:
		if int(req.Shard) >= len(s.shards) {
			c.reply(req, resp, wire.StatusBadRequest, fmt.Sprintf("shard %d out of range", req.Shard))
			return true
		}
		sh := cn.shardFor(int(req.Shard))
		if s.draining.Load() {
			c.reply(req, resp, wire.StatusShutdown, "server draining")
			return true
		}
		// The stream keeps its place behind what this reader staged before
		// it, and goes out at once: only a full ring pushes back.
		c.charge()
		c.stage(sh, task{req: req, resp: resp, c: c})
		c.publish()
		return true
	case wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpCAS:
		st := cn.states[s.Shard(req.Key)]
		if st.moving.Load() {
			c.reply(req, resp, wire.StatusBusy, "shard handoff in progress")
			return true
		}
		if clusterRole(st.role.Load()) != roleLeader {
			wrongShard(st.epoch.Load())
			return true
		}
		return false
	case wire.OpAtomic:
		// Every involved wire shard must be led here: the batch's atomicity
		// is node-local. Cross-node batches are a client-side routing error
		// (the cluster client refuses them up front).
		var maxEpoch uint64
		for _, sub := range req.Subs {
			st := cn.states[s.Shard(sub.Key)]
			if st.moving.Load() {
				c.reply(req, resp, wire.StatusBusy, "shard handoff in progress")
				return true
			}
			if clusterRole(st.role.Load()) != roleLeader {
				if e := st.epoch.Load(); e > maxEpoch {
					maxEpoch = e
				}
			}
		}
		if maxEpoch > 0 {
			wrongShard(maxEpoch)
			return true
		}
		return false
	case wire.OpScan:
		// A SCAN page consults every shard; it is served only by a node
		// leading all of them (a single-node cluster, or before any handoff).
		for _, st := range cn.states {
			if st.moving.Load() {
				c.reply(req, resp, wire.StatusBusy, "shard handoff in progress")
				return true
			}
			if clusterRole(st.role.Load()) != roleLeader {
				wrongShard(st.epoch.Load())
				return true
			}
		}
		return false
	}
	return false
}

// replStats reports the acked-follower watermark and replica lag for one
// wire shard's STATS entry: the minimum acked sequence across the shard's
// attached followers, and how many records the slowest one trails the log.
func (cn *clusterNode) replStats(shardID int) (followerAcks, lagRecords uint64) {
	st := cn.states[shardID]
	if clusterRole(st.role.Load()) != roleLeader {
		return 0, 0
	}
	st.mu.Lock()
	minAcked := uint64(0)
	first := true
	for _, r := range st.followers {
		a := r.acked.Load()
		if first || a < minAcked {
			minAcked, first = a, false
		}
	}
	st.mu.Unlock()
	if first {
		return 0, 0
	}
	sh := cn.shardFor(shardID)
	if sh.log != nil {
		if last := sh.log.NextSeq() - 1; last > minAcked {
			lagRecords = last - minAcked
		}
	}
	return minAcked, lagRecords
}

// Handoff moves leadership of one wire shard from this node to target,
// live: quiesce the shard (moving + the walMu barrier), capture its full
// state, ship it (BEGIN/ENTRIES), commit the reassignment at the seed, then
// finalize the target (COMMIT with the new epoch) and demote this node to a
// follower. In-flight and straggling requests answer BUSY or WRONG_SHARD
// with the new epoch; a routing client refetches the map and retries.
func (s *Server) Handoff(shardID int, target uint32) error {
	cn := s.cluster
	if cn == nil {
		return errors.New("server: not a cluster member")
	}
	if shardID < 0 || shardID >= len(s.shards) {
		return fmt.Errorf("server: shard %d out of range", shardID)
	}
	st := cn.states[shardID]
	if clusterRole(st.role.Load()) != roleLeader {
		return fmt.Errorf("server: shard %d is not led by this node", shardID)
	}
	if target == cn.nodeID.Load() {
		return errors.New("server: handoff target is this node")
	}
	addr, ok := cn.nodeAddr(target)
	if !ok {
		return fmt.Errorf("server: unknown target node %d", target)
	}
	if !st.moving.CompareAndSwap(false, true) {
		return fmt.Errorf("server: shard %d handoff already in progress", shardID)
	}
	defer st.moving.Store(false)

	// The outgoing senders would fight the install (their re-sync bootstrap
	// is itself a handoff-shaped transfer); stop them — the new leader
	// re-streams to every follower, this node included.
	cn.stopShardSenders(shardID)

	sh := cn.shardFor(shardID)
	th := s.rt.RegisterThread()
	defer th.Release()
	// The walMu acquisition inside the capture is the quiesce barrier: every
	// mutation holds walMu and rechecks moving under it, so nothing commits
	// after the captured state.
	entries, seq, err := s.captureShardState(sh, th, nil)
	if err != nil {
		return fmt.Errorf("server: handoff capture: %w", err)
	}

	if err := cn.shipState(addr, shardID, seq, entries, func() (uint64, error) {
		return cn.reassign(shardID, target)
	}, st); err != nil {
		return err
	}
	st.handoffs.Add(1)
	s.logf("votmd: shard %d: handed off to node %d (%d keys, seq %d)", shardID, target, len(entries), seq)
	return nil
}

// handoffDialTimeout bounds each transfer-connection operation.
const handoffDialTimeout = 5 * time.Second

// shipState performs the wire half of a handoff over its own connection:
// installState's BEGIN/ENTRIES, then — as its before-commit step — the seed
// reassignment (the commit point) and self-demotion, then the COMMIT frame
// carrying the new epoch. A reassignment failure aborts cleanly (the target
// holds a consistent copy but no authority).
func (cn *clusterNode) shipState(addr string, shardID int, seq uint64, entries []wal.Entry, commitFn func() (uint64, error), st *clShard) error {
	c, err := net.DialTimeout("tcp", addr, handoffDialTimeout)
	if err != nil {
		return fmt.Errorf("server: handoff dial %s: %w", addr, err)
	}
	defer func() { _ = c.Close() }()
	br := bufio.NewReader(c)
	id := uint32(0)
	do := func(req *wire.Request) (*wire.Response, error) {
		id++
		req.ID = id
		_ = c.SetDeadline(time.Now().Add(handoffDialTimeout))
		if err := wire.WriteRequest(c, req); err != nil {
			return nil, err
		}
		resp, err := wire.ReadResponse(br)
		if err != nil {
			return nil, err
		}
		return resp, resp.Err()
	}
	reassigned := false
	err = installState(shardID, seq, entries, func() (uint64, error) {
		epoch, err := commitFn()
		if err != nil {
			return 0, fmt.Errorf("handoff reassignment: %w", err)
		}
		// The reassignment is committed: this node no longer leads, whatever
		// happens to the final frame. Demote before telling the target so no
		// moment exists where both nodes serve writes.
		st.role.Store(uint32(roleFollower))
		st.epoch.Store(epoch)
		reassigned = true
		return epoch, nil
	}, do)
	switch {
	case err == nil:
	case reassigned:
		// The target still learns its promotion from the map watch; the
		// COMMIT frame only accelerates it (and its durability snapshot).
		cn.s.logf("votmd: shard %d: handoff commit frame failed (target will promote via watch): %v", shardID, err)
	default:
		return fmt.Errorf("server: %w", err)
	}
	return nil
}
