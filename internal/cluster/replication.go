// Replication data plane of a Member (member.go holds the control plane):
// per-follower WAL-stream senders fed by the log's tee,
// semi-synchronous commit waits, the follower-side frame apply, and the
// snapshot install shared by replication bootstraps and live handoffs.
//
// The stream is the leader's WAL, verbatim: the tee hands every appended
// frame (CRC and all) to each follower's buffer, the sender ships buffered
// runs over REPLICATE, and the follower appends them byte-identical with
// wal.Log.AppendFrames — so a promoted follower's log IS the leader's log up
// to its acked watermark, and recovery needs no special cases. Any loss of
// continuity (buffer overflow, an oversized frame, a seq gap, a follower
// restarted into a different position) degrades to a snapshot re-sync: the
// sender captures the shard under its WAL lock, installs it through the same
// BEGIN/ENTRIES/COMMIT sequence a live handoff uses (installState, its one
// writer), and streams on from the captured sequence. Whatever the follower
// applies — streamed frames, installed entries, the wipe before an install —
// goes through the shard's redo applier (server.Shard.AppendFrames, Redo).
//
// Lock order across the seam (tightest first): the shard's WAL lock
// (server shard.walMu) > wal.Log's internal mutex > shardState.mu >
// replica.mu. The tee runs with the first two held and takes the last two;
// everything else here takes shardState.mu or replica.mu alone.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"votm"
	"votm/internal/server"
	"votm/internal/wal"
	"votm/wire"
)

const (
	// replicaSendMax bounds one REPLICATE payload: a buffered run is split on
	// frame boundaries to stay under the wire's MaxFrame.
	replicaSendMax = 768 << 10
	// replicaBufMax bounds a follower's stream buffer; a follower further
	// behind than this re-syncs from a snapshot instead of a frame backlog.
	replicaBufMax = 8 << 20
	// handoffChunkBytes splits a snapshot install's entries into ENTRIES
	// frames comfortably under the wire's MaxFrame.
	handoffChunkBytes = 512 << 10
	// replIOTimeout bounds each exchange of a replication sender.
	replIOTimeout = 10 * time.Second
	// replBackoffMin/Max pace a sender's reconnect attempts.
	replBackoffMin = 50 * time.Millisecond
	replBackoffMax = 2 * time.Second
)

// readOnlyDetail is the TxFault detail of a stream op refused by a shard
// that lost its WAL.
const readOnlyDetail = "shard is read-only after a WAL failure"

// replica is the leader's view of one follower of one shard: the stream
// buffer the tee fills, the sender that drains it, and the acked watermark
// semi-sync commits wait on.
type replica struct {
	node    uint32
	shardID int
	peer    peer // the follower; closed to unblock sender IO

	mu     sync.Mutex
	cond   *sync.Cond // armed on buffered frames, resync, close
	buf    []byte     // contiguous verbatim frames awaiting send
	ends   []int      // per-frame end offsets into buf
	start  uint64     // seq of buf's first frame (valid when len(ends) > 0)
	next   uint64     // seq the next teed frame must carry (0 = unknown)
	resync bool       // continuity lost: the sender must snapshot re-sync
	closed bool

	done chan struct{} // closed exactly once by close()

	ackMu sync.Mutex
	ackCh chan struct{} // closed and replaced on every watermark move

	acked    atomic.Uint64 // highest follower-durable seq
	detached atomic.Bool   // true: semi-sync commits stop waiting for it
}

func newReplica(node uint32, addr string, shardID int) *replica {
	r := &replica{
		node:    node,
		shardID: shardID,
		peer:    peer{addr: addr, timeout: replIOTimeout},
		done:    make(chan struct{}),
		ackCh:   make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// offer hands one appended frame to the stream buffer. Called by the tee
// with walMu and the log's mutex held: it must only buffer, never block.
// Continuity violations flip resync instead of buffering garbage.
func (r *replica) offer(seq uint64, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.resync {
		return
	}
	if r.next != 0 && seq != r.next {
		r.startResyncLocked()
		return
	}
	if len(frame) > replicaSendMax || len(r.buf)+len(frame) > replicaBufMax {
		// An unsendable frame or a follower too far behind: cheaper to
		// re-sync from a snapshot than to widen the stream.
		r.startResyncLocked()
		return
	}
	if len(r.ends) == 0 {
		r.start = seq
	}
	r.buf = append(r.buf, frame...)
	r.ends = append(r.ends, len(r.buf))
	r.next = seq + 1
	r.cond.Signal()
}

func (r *replica) startResyncLocked() {
	r.resync = true
	r.buf, r.ends = r.buf[:0], r.ends[:0]
	r.cond.Signal()
}

// takeState classifies what take handed back.
type takeState int

const (
	takeFrames takeState = iota
	takeResync
	takeClosed
)

// take blocks until frames, a resync demand or retirement, then hands back
// a frame run of at most replicaSendMax bytes. spare recycles a previously
// handed-out buffer. expected is the seq the follower's log must report
// after appending the run (start + frame count).
func (r *replica) take(spare []byte) (frames []byte, start, expected uint64, state takeState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.closed && !r.resync && len(r.ends) == 0 {
		r.cond.Wait()
	}
	switch {
	case r.closed:
		return nil, 0, 0, takeClosed
	case r.resync:
		return nil, 0, 0, takeResync
	}
	k := len(r.ends)
	for k > 1 && r.ends[k-1] > replicaSendMax {
		k--
	}
	start = r.start
	expected = start + uint64(k)
	if k == len(r.ends) {
		frames, r.buf = r.buf, spare[:0]
		r.ends = r.ends[:0]
		return frames, start, expected, takeFrames
	}
	// Partial run (follower behind): hand out the prefix, keep the rest.
	cut := r.ends[k-1]
	frames = r.buf[:cut:cut]
	r.buf = append(spare[:0], r.buf[cut:]...)
	for i := k; i < len(r.ends); i++ {
		r.ends[i-k] = r.ends[i] - cut
	}
	r.ends = r.ends[:len(r.ends)-k]
	r.start = expected
	return frames, start, expected, takeFrames
}

// close retires the replica: wakes the sender, unblocks its IO, and releases
// every semi-sync waiter. Idempotent.
func (r *replica) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.peer.close()
	close(r.done)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.detached.Store(true)
	r.bump()
}

func (r *replica) isClosed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// barrier returns a channel closed on the next watermark move.
func (r *replica) barrier() <-chan struct{} {
	r.ackMu.Lock()
	ch := r.ackCh
	r.ackMu.Unlock()
	return ch
}

// bump wakes every semi-sync waiter parked on the current barrier.
func (r *replica) bump() {
	r.ackMu.Lock()
	close(r.ackCh)
	r.ackCh = make(chan struct{})
	r.ackMu.Unlock()
}

// adopt decides whether the live buffer can serve a follower whose log ends
// at followerNext without a snapshot, and arms the stream if so. Everything
// below followerNext is already follower-durable, so a true return also
// fixes the acked baseline at followerNext-1.
func (r *replica) adopt(followerNext, leaderNext uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.resync {
		return false
	}
	switch {
	case len(r.ends) > 0:
		if followerNext != r.start {
			return false
		}
	case r.next != 0:
		if followerNext != r.next {
			return false
		}
	default:
		// Nothing teed yet: the stream can start here only if the follower
		// is exactly at the leader's tip. (Any append since leaderNext was
		// read would have been teed, landing in the cases above.)
		if followerNext != leaderNext {
			return false
		}
		r.next = followerNext
	}
	return true
}

// attachReplica records a follower-durable watermark and re-engages the
// semi-sync wait if the follower had been detached.
func (m *Member) attachReplica(r *replica, seq uint64) {
	r.acked.Store(seq)
	if r.detached.Swap(false) {
		m.logf("votmd: shard %d: follower %d re-attached at seq %d", r.shardID, r.node, seq)
	}
	r.bump()
}

// Tee fans one appended frame out to every follower of the shard. It runs on
// the appending worker with the WAL lock and the log's mutex held; before
// Start it has no follower to feed.
func (m *Member) Tee(shardID int, seq uint64, frame []byte) {
	if !m.started.Load() {
		return
	}
	st := m.states[shardID]
	st.mu.Lock()
	for _, r := range st.followers {
		r.offer(seq, frame)
	}
	st.mu.Unlock()
}

// ensureSenders reconciles the shard's sender set against the mapped
// replica list: new followers get a sender, removed ones are retired.
func (m *Member) ensureSenders(shardID int, replicas []uint32, mp *wire.ShardMap) {
	st := m.states[shardID]
	me := m.nodeID.Load()
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range replicas {
		if id == me {
			continue
		}
		if _, ok := st.followers[id]; ok {
			continue
		}
		n := mp.Node(id)
		if n == nil {
			continue
		}
		r := newReplica(id, n.Addr, shardID)
		st.followers[id] = r
		m.senderWG.Add(1)
		go m.runSender(r)
	}
	for id, r := range st.followers {
		if id == me || !containsNode(replicas, id) {
			r.close()
			delete(st.followers, id)
		}
	}
}

// stopShardSenders retires every sender of one shard.
func (m *Member) stopShardSenders(shardID int) {
	st := m.states[shardID]
	st.mu.Lock()
	for id, r := range st.followers {
		r.close()
		delete(st.followers, id)
	}
	st.mu.Unlock()
}

// runSender is one follower's replication loop: probe where its log ends,
// stream the live buffer if it lines up (snapshot-install a fresh copy if
// not), then ship buffered frame runs and advance the acked watermark on
// each confirmation. Any transport error detaches the follower (semi-sync
// commits stop waiting) and retries with backoff; a successful re-sync
// re-attaches it.
func (m *Member) runSender(r *replica) {
	defer m.senderWG.Done()
	defer r.peer.close()
	sh := m.shards[r.shardID]

	backoff := replBackoffMin
	// fail detaches the follower and paces the retry; false means retired.
	fail := func(err error) bool {
		r.peer.drop()
		if !r.detached.Swap(true) {
			m.logf("votmd: shard %d: follower %d detached (%v); commits stop waiting for it",
				r.shardID, r.node, err)
		}
		r.bump()
		select {
		case <-r.done:
			return false
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, replBackoffMax)
		return true
	}

	synced := false
	var spare []byte
	for {
		if r.isClosed() {
			return
		}
		if !synced {
			leaderNext := sh.NextSeq()
			probe, err := r.peer.do(context.Background(), &wire.Request{Op: wire.OpReplicate, Shard: uint32(r.shardID)})
			if err != nil {
				if !fail(err) {
					return
				}
				continue
			}
			base := probe.Cursor - 1
			if !r.adopt(probe.Cursor, leaderNext) {
				seq, err := m.bootstrap(sh, r)
				if err != nil {
					if !fail(err) {
						return
					}
					continue
				}
				base = seq
			}
			m.attachReplica(r, base)
			synced = true
			backoff = replBackoffMin
		}
		frames, start, expected, state := r.take(spare)
		spare = nil
		switch state {
		case takeClosed:
			return
		case takeResync:
			synced = false
			continue
		}
		resp, err := r.peer.do(context.Background(), &wire.Request{Op: wire.OpReplicate, Shard: uint32(r.shardID), Key: start, Value: frames})
		spare = frames[:0]
		if err != nil {
			// The taken run is dropped; the next probe decides between
			// resuming the stream (the follower did append it) and a
			// snapshot re-sync (it did not).
			synced = false
			if !fail(err) {
				return
			}
			continue
		}
		if resp.Cursor != expected {
			synced = false
			continue
		}
		m.attachReplica(r, expected-1)
	}
}

// bootstrap re-syncs one follower from a snapshot: capture the shard under
// its WAL lock — resetting the stream buffer in the same critical section, so
// the buffer's first frame is exactly the first append after the captured
// state — then install the copy through the handoff sequence (epoch 0: no
// promotion). Returns the captured seq, the follower's new durable baseline.
func (m *Member) bootstrap(sh *server.Shard, r *replica) (uint64, error) {
	entries, seq, err := sh.Capture(func() {
		next := sh.NextSeq()
		r.mu.Lock()
		r.resync = false
		r.buf, r.ends = r.buf[:0], r.ends[:0]
		r.next = next
		r.mu.Unlock()
	})
	if err != nil {
		return 0, err
	}
	noPromotion := func() (uint64, error) { return 0, nil }
	if err := installState(&r.peer, r.shardID, seq, entries, noPromotion); err != nil {
		return 0, err
	}
	m.logf("votmd: shard %d: bootstrapped follower %d (%d keys, seq %d)",
		r.shardID, r.node, len(entries), seq)
	return seq, nil
}

// Handoff moves leadership of one wire shard from this node to target,
// live: quiesce the shard (the moving gate + the WAL lock barrier), capture
// its full state, ship it (BEGIN/ENTRIES), commit the reassignment at the
// seed, then finalize the target (COMMIT with the new epoch) and demote this
// node to a follower. In-flight and straggling requests answer BUSY or
// WRONG_SHARD with the new epoch; a routing client refetches the map and
// retries. A reassignment failure aborts cleanly (the target holds a
// consistent copy but no authority).
func (m *Member) Handoff(shardID int, target uint32) error {
	if shardID < 0 || shardID >= len(m.states) {
		return fmt.Errorf("cluster: shard %d out of range", shardID)
	}
	st, sh := m.states[shardID], m.shards[shardID]
	if !st.leads() {
		return fmt.Errorf("cluster: shard %d is not led by this node", shardID)
	}
	if target == m.nodeID.Load() {
		return errors.New("cluster: handoff target is this node")
	}
	addr, ok := m.nodeAddr(target)
	if !ok {
		return fmt.Errorf("cluster: unknown target node %d", target)
	}
	if !sh.Moving().CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: shard %d handoff already in progress", shardID)
	}
	defer sh.Moving().Store(false)

	// The outgoing senders would fight the install (their re-sync bootstrap
	// is itself a handoff-shaped transfer); stop them — the new leader
	// re-streams to every follower, this node included.
	m.stopShardSenders(shardID)

	// The WAL lock taken by the capture is the quiesce barrier: every
	// mutation holds it and rechecks the gate under it, so nothing commits
	// after the captured state.
	entries, seq, err := sh.Capture(nil)
	if err != nil {
		return fmt.Errorf("cluster: handoff capture: %w", err)
	}
	p := &peer{addr: addr, timeout: ctlTimeout}
	defer p.close()
	reassigned := false
	err = installState(p, shardID, seq, entries, func() (uint64, error) {
		epoch, err := m.reassign(shardID, target)
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
	})
	switch {
	case err == nil:
	case reassigned:
		// The target still learns its promotion from the map watch; the
		// COMMIT frame only accelerates it (and its durability snapshot).
		m.logf("votmd: shard %d: handoff commit frame failed (target will promote via watch): %v", shardID, err)
	default:
		return fmt.Errorf("cluster: %w", err)
	}
	st.handoffs.Add(1)
	m.logf("votmd: shard %d: handed off to node %d (%d keys, seq %d)", shardID, target, len(entries), seq)
	return nil
}

// installState ships one captured shard state to p through the three handoff
// phases — the one writer of BEGIN / ENTRIES / COMMIT. beforeCommit runs once
// the last entry chunk is acknowledged and yields the epoch COMMIT carries: 0
// installs a follower copy (a replication bootstrap), a real epoch promotes
// the receiver (a live handoff, whose before-commit step is the seed
// reassignment).
func installState(p *peer, shardID int, seq uint64, entries []wal.Entry, beforeCommit func() (uint64, error)) error {
	if _, err := p.do(context.Background(), &wire.Request{Op: wire.OpHandoff, Shard: uint32(shardID), Phase: wire.HandoffBegin, Key: seq}); err != nil {
		return fmt.Errorf("handoff begin: %w", err)
	}
	for _, chunk := range chunkEntries(entries, handoffChunkBytes) {
		if _, err := p.do(context.Background(), &wire.Request{Op: wire.OpHandoff, Shard: uint32(shardID), Phase: wire.HandoffEntries, Value: chunk}); err != nil {
			return fmt.Errorf("handoff entries: %w", err)
		}
	}
	epoch, err := beforeCommit()
	if err != nil {
		return err
	}
	if _, err := p.do(context.Background(), &wire.Request{Op: wire.OpHandoff, Shard: uint32(shardID), Phase: wire.HandoffCommit, Key: epoch}); err != nil {
		return fmt.Errorf("handoff commit: %w", err)
	}
	return nil
}

// chunkEntries packs snapshot entries into ENTRIES payloads of at most
// maxBytes, encoded as nested record lists (RecPut per entry) the follower
// decodes with wal.DecodeRecords.
func chunkEntries(entries []wal.Entry, maxBytes int) [][]byte {
	var (
		chunks [][]byte
		recs   []wal.Record
		size   int
	)
	flush := func() {
		if len(recs) == 0 {
			return
		}
		chunks = append(chunks, wal.AppendRecords(nil, recs))
		recs, size = recs[:0], 0
	}
	for _, e := range entries {
		if len(recs) > 0 && size+len(e.Value)+24 > maxBytes {
			flush()
		}
		recs = append(recs, wal.Record{Kind: wal.RecPut, Key: e.Key, Value: e.Value})
		size += len(e.Value) + 24
	}
	flush()
	return chunks
}

// WaitReplicated blocks a committed-and-flushed write group until every
// attached follower of the shard has acked seq, or the replication deadline
// passes — in which case the laggard is detached (logged) and commits stop
// waiting for it until it catches back up. Only the shard's flusher calls it,
// so the follower snapshot's scratch is the shard's.
func (m *Member) WaitReplicated(shardID int, seq uint64) {
	if seq == 0 || !m.started.Load() {
		return
	}
	st := m.states[shardID]
	if !st.leads() {
		return
	}
	st.mu.Lock()
	reps := st.waiting[:0]
	for _, r := range st.followers {
		reps = append(reps, r)
	}
	st.mu.Unlock()
	deadline := time.Now().Add(m.cfg.ReplTimeout)
	for _, r := range reps {
		for r.acked.Load() < seq && !r.detached.Load() {
			ch := r.barrier()
			// Re-check under the fresh barrier: a move between the check and
			// barrier() would otherwise be missed.
			if r.acked.Load() >= seq || r.detached.Load() {
				break
			}
			d := time.Until(deadline)
			if d <= 0 {
				if !r.detached.Swap(true) {
					m.logf("votmd: shard %d: follower %d missed the replication deadline (acked %d, need %d); detached",
						shardID, r.node, r.acked.Load(), seq)
				}
				r.bump()
				break
			}
			t := time.NewTimer(d)
			select {
			case <-ch:
			case <-t.C:
			}
			t.Stop()
		}
	}
	clear(reps)
	st.waiting = reps[:0]
}

// --- follower-side apply ---------------------------------------------------

// Stream runs a REPLICATE or HANDOFF request on its shard's worker.
func (m *Member) Stream(th *votm.Thread, req *wire.Request, resp *wire.Response) uint64 {
	if req.Op == wire.OpReplicate {
		return m.replicate(th, req, resp)
	}
	m.handoff(th, req, resp)
	return 0
}

// replicate serves one REPLICATE frame batch (or, with an empty payload, a
// probe for where this log ends). Frames are appended verbatim and applied to
// memory under the WAL lock (so snapshots always capture state matching their
// seq), and flushed before the ack: the returned seq holds it on the
// completion list like a write group's. The answer's Cursor is this log's
// next sequence, which doubles as the resync signal when it is not what the
// leader expected.
func (m *Member) replicate(th *votm.Thread, req *wire.Request, resp *wire.Response) (last uint64) {
	st, sh := m.states[req.Shard], m.shards[req.Shard]
	switch {
	case st.leads():
		wrongShard(resp, st.epoch.Load())
		return 0
	case sh.ReadOnly():
		answer(resp, wire.StatusTxFault, readOnlyDetail)
		return 0
	}
	var err error
	sh.Lock()
	if len(req.Value) > 0 {
		last, err = sh.AppendFrames(th, req.Value)
	}
	next := sh.NextSeq()
	sh.Unlock()
	if err != nil {
		status := wire.StatusBadRequest
		if sh.ReadOnly() {
			status = wire.StatusTxFault
		}
		answer(resp, status, err.Error())
		return 0
	}
	// A frame gap still answers OK: Cursor tells the leader where this log
	// actually ends, and the mismatch with its expectation triggers the
	// re-sync. Everything up to Cursor-1 IS durable here when the ack leaves.
	resp.Cursor = next
	return last
}

// handoff serves one snapshot-install phase (replication bootstrap or live
// handoff; only COMMIT's epoch distinguishes them). BEGIN wipes the shard —
// state, a held prepare, the log (reset past the captured seq) — ENTRIES
// installs the captured copy, and COMMIT snapshots it (the durable baseline
// replacing the WAL history this node never saw) and, with a real epoch,
// promotes this node to leader.
func (m *Member) handoff(th *votm.Thread, req *wire.Request, resp *wire.Response) {
	st, sh := m.states[req.Shard], m.shards[req.Shard]
	// Leadership rejects a NEW install (a stray bootstrap must not wipe a
	// live leader) — but not the tail of one in progress: the map watch can
	// promote this node between the last ENTRIES and the COMMIT, and the
	// COMMIT must still land (it writes the installed state's durability
	// baseline). The installing flag is guarded by the WAL lock; re-read it
	// per phase.
	midInstall := func() bool {
		sh.Lock()
		defer sh.Unlock()
		return st.installing
	}
	if st.leads() && (req.Phase == wire.HandoffBegin || !midInstall()) {
		wrongShard(resp, st.epoch.Load())
		return
	}
	if sh.ReadOnly() {
		answer(resp, wire.StatusTxFault, readOnlyDetail)
		return
	}
	switch req.Phase {
	case wire.HandoffBegin:
		sh.Lock()
		err := sh.Clear(th, req.Key)
		if err == nil {
			st.installing = true
		}
		sh.Unlock()
		if err != nil {
			sh.Fault(err)
			answer(resp, wire.StatusTxFault, "handoff begin: "+err.Error())
			return
		}
	case wire.HandoffEntries:
		var recs []wal.Record
		if !wal.DecodeRecords(req.Value, &recs) {
			answer(resp, wire.StatusBadRequest, "malformed handoff entries")
			return
		}
		sh.Lock()
		if !st.installing {
			sh.Unlock()
			answer(resp, wire.StatusBadRequest, "no handoff install in progress")
			return
		}
		err := sh.Redo(th, recs) // nothing is held mid-install
		sh.Unlock()
		if err != nil {
			answer(resp, wire.StatusTxFault, "handoff install: "+err.Error())
			return
		}
	case wire.HandoffCommit:
		sh.Lock()
		installing := st.installing
		st.installing = false
		sh.Unlock()
		if !installing {
			answer(resp, wire.StatusBadRequest, "no handoff install in progress")
			return
		}
		// The snapshot is the installed state's durability baseline: the log
		// starts past the captured seq and replays nothing below it. Without
		// it a crash here would lose the install, so its failure fails the
		// handoff.
		if err := sh.Snapshot(th); err != nil {
			answer(resp, wire.StatusTxFault, "handoff snapshot: "+err.Error())
			return
		}
		if epoch := req.Key; epoch != 0 {
			st.epoch.Store(epoch)
			if role(st.role.Swap(uint32(roleLeader))) != roleLeader {
				m.logf("votmd: shard %d: promoted to leader by handoff (epoch %d)", req.Shard, epoch)
			}
		}
	default:
		answer(resp, wire.StatusBadRequest, "bad handoff phase")
		return
	}
	resp.Status = wire.StatusOK
	resp.Cursor = sh.NextSeq()
}
