// Replication data plane for the cluster layer (cluster.go holds the
// control plane): per-follower WAL-stream senders fed by the log's tee,
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
// sender captures the shard under walMu, installs it through the same
// BEGIN/ENTRIES/COMMIT sequence a live handoff uses (installState, its one
// writer), and streams on from the captured sequence. Whatever the follower
// applies — streamed frames, installed entries, the wipe before an install —
// goes through the redo applier into shard.applyRecords (store.go).
//
// Lock order (tightest first): shard.walMu > wal.Log's internal mutex >
// clShard.mu > replica.mu. The tee runs with the first two held and takes
// the last two; everything else takes clShard.mu or replica.mu alone.
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

	"votm"
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
	// replIOTimeout bounds each replication/handoff wire operation.
	replIOTimeout = 10 * time.Second
	// replBackoffMin/Max pace a sender's reconnect attempts.
	replBackoffMin = 50 * time.Millisecond
	replBackoffMax = 2 * time.Second
)

// errReplicaClosed aborts sender IO against a retired replica.
var errReplicaClosed = errors.New("server: replica retired")

// errShardMoving refuses writes quiesced by a live handoff; mapped to
// StatusBusy (nothing executed, the client's retry re-routes).
var errShardMoving = errors.New("server: shard handoff in progress")

// replica is the leader's view of one follower of one shard: the stream
// buffer the tee fills, the sender that drains it, and the acked watermark
// semi-sync commits wait on.
type replica struct {
	node    uint32
	addr    string
	shardID int

	mu     sync.Mutex
	cond   *sync.Cond // armed on buffered frames, resync, close
	buf    []byte     // contiguous verbatim frames awaiting send
	ends   []int      // per-frame end offsets into buf
	start  uint64     // seq of buf's first frame (valid when len(ends) > 0)
	next   uint64     // seq the next teed frame must carry (0 = unknown)
	resync bool       // continuity lost: the sender must snapshot re-sync
	closed bool
	conn   net.Conn // live transfer connection, closed to unblock sender IO

	done chan struct{} // closed exactly once by close()

	ackMu sync.Mutex
	ackCh chan struct{} // closed and replaced on every watermark move

	acked    atomic.Uint64 // highest follower-durable seq
	detached atomic.Bool   // true: semi-sync commits stop waiting for it
}

func newReplica(node uint32, addr string, shardID int) *replica {
	r := &replica{
		node:    node,
		addr:    addr,
		shardID: shardID,
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
	if r.conn != nil {
		_ = r.conn.Close()
	}
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
func (cn *clusterNode) attachReplica(r *replica, seq uint64) {
	r.acked.Store(seq)
	if r.detached.Swap(false) {
		cn.s.logf("votmd: shard %d: follower %d re-attached at seq %d", r.shardID, r.node, seq)
	}
	r.bump()
}

// tee fans one appended frame out to every follower of the shard. Runs on
// the appending worker with walMu and the log's mutex held (wal.Options.Tee).
func (cn *clusterNode) tee(shardID int, seq uint64, frame []byte) {
	st := cn.states[shardID]
	st.mu.Lock()
	for _, r := range st.followers {
		r.offer(seq, frame)
	}
	st.mu.Unlock()
}

// ensureSenders reconciles the shard's sender set against the mapped
// replica list: new followers get a sender, removed ones are retired.
func (cn *clusterNode) ensureSenders(shardID int, replicas []uint32, m *wire.ShardMap) {
	st := cn.states[shardID]
	me := cn.nodeID.Load()
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range replicas {
		if id == me {
			continue
		}
		if _, ok := st.followers[id]; ok {
			continue
		}
		n := m.Node(id)
		if n == nil {
			continue
		}
		r := newReplica(id, n.Addr, shardID)
		st.followers[id] = r
		cn.senderWG.Add(1)
		go cn.runSender(r)
	}
	for id, r := range st.followers {
		if id == me || !containsID(replicas, id) {
			r.close()
			delete(st.followers, id)
		}
	}
}

// stopShardSenders retires every sender of one shard.
func (cn *clusterNode) stopShardSenders(shardID int) {
	st := cn.states[shardID]
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
func (cn *clusterNode) runSender(r *replica) {
	defer cn.senderWG.Done()
	sh := cn.shardFor(r.shardID)
	th := cn.s.rt.RegisterThread()
	defer th.Release()

	var (
		c     net.Conn
		br    *bufio.Reader
		reqID uint32
	)
	disconnect := func() {
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
		if c != nil {
			_ = c.Close()
			c, br = nil, nil
		}
	}
	defer disconnect()

	do := func(req *wire.Request) (*wire.Response, error) {
		if c == nil {
			nc, err := net.DialTimeout("tcp", r.addr, seedDialTimeout)
			if err != nil {
				return nil, err
			}
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				_ = nc.Close()
				return nil, errReplicaClosed
			}
			r.conn = nc
			r.mu.Unlock()
			c, br = nc, bufio.NewReader(nc)
		}
		reqID++
		req.ID = reqID
		_ = c.SetDeadline(time.Now().Add(replIOTimeout))
		if err := wire.WriteRequest(c, req); err != nil {
			return nil, err
		}
		resp, err := wire.ReadResponse(br)
		if err != nil {
			return nil, err
		}
		if err := resp.Err(); err != nil {
			return nil, err
		}
		return resp, nil
	}

	backoff := replBackoffMin
	// fail detaches the follower and paces the retry; false means retired.
	fail := func(err error) bool {
		disconnect()
		if !r.detached.Swap(true) {
			cn.s.logf("votmd: shard %d: follower %d detached (%v); commits stop waiting for it",
				r.shardID, r.node, err)
		}
		r.bump()
		select {
		case <-r.done:
			return false
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > replBackoffMax {
			backoff = replBackoffMax
		}
		return true
	}

	synced := false
	var spare []byte
	for {
		if r.isClosed() {
			return
		}
		if !synced {
			leaderNext := sh.log.NextSeq()
			probe, err := do(&wire.Request{Op: wire.OpReplicate, Shard: uint32(r.shardID)})
			if err != nil {
				if !fail(err) {
					return
				}
				continue
			}
			base := probe.Cursor - 1
			if !r.adopt(probe.Cursor, leaderNext) {
				seq, err := cn.bootstrap(sh, th, r, do)
				if err != nil {
					if !fail(err) {
						return
					}
					continue
				}
				base = seq
			}
			cn.attachReplica(r, base)
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
		resp, err := do(&wire.Request{Op: wire.OpReplicate, Shard: uint32(r.shardID), Key: start, Value: frames})
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
		cn.attachReplica(r, expected-1)
	}
}

// bootstrap re-syncs one follower from a snapshot: capture the shard under
// walMu — resetting the stream buffer in the same critical section, so the
// buffer's first frame is exactly the first append after the captured state
// — then install the copy through the handoff sequence (epoch 0: no
// promotion). Returns the captured seq, the follower's new durable baseline.
func (cn *clusterNode) bootstrap(sh *shard, th *votm.Thread, r *replica, do func(*wire.Request) (*wire.Response, error)) (uint64, error) {
	entries, seq, err := cn.s.captureShardState(sh, th, func() {
		next := sh.log.NextSeq()
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
	if err := installState(r.shardID, seq, entries, noPromotion, do); err != nil {
		return 0, err
	}
	cn.s.logf("votmd: shard %d: bootstrapped follower %d (%d keys, seq %d)",
		r.shardID, r.node, len(entries), seq)
	return seq, nil
}

// installState ships one captured shard state through the three handoff
// phases — the one writer of BEGIN / ENTRIES / COMMIT. beforeCommit runs once
// the last entry chunk is acknowledged and yields the epoch COMMIT carries: 0
// installs a follower copy (a replication bootstrap), a real epoch promotes
// the receiver (a live handoff, whose before-commit step is the seed
// reassignment: cluster.go shipState).
func installState(shardID int, seq uint64, entries []wal.Entry, beforeCommit func() (uint64, error), do func(*wire.Request) (*wire.Response, error)) error {
	if _, err := do(&wire.Request{Op: wire.OpHandoff, Shard: uint32(shardID), Phase: wire.HandoffBegin, Key: seq}); err != nil {
		return fmt.Errorf("handoff begin: %w", err)
	}
	for _, chunk := range chunkEntries(entries, handoffChunkBytes) {
		if _, err := do(&wire.Request{Op: wire.OpHandoff, Shard: uint32(shardID), Phase: wire.HandoffEntries, Value: chunk}); err != nil {
			return fmt.Errorf("handoff entries: %w", err)
		}
	}
	epoch, err := beforeCommit()
	if err != nil {
		return err
	}
	if _, err := do(&wire.Request{Op: wire.OpHandoff, Shard: uint32(shardID), Phase: wire.HandoffCommit, Key: epoch}); err != nil {
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

// waitReplicated blocks a committed-and-synced write group until every
// attached follower of the shard has acked seq, or the replication deadline
// passes — in which case the laggard is detached (logged) and commits stop
// waiting for it until it catches back up. scratch recycles the follower
// snapshot between calls; the (possibly grown) slice is returned emptied.
func (s *Server) waitReplicated(sh *shard, seq uint64, scratch []*replica) []*replica {
	cn := s.cluster
	if cn == nil || seq == 0 {
		return scratch
	}
	st := cn.states[sh.id]
	if clusterRole(st.role.Load()) != roleLeader {
		return scratch
	}
	st.mu.Lock()
	reps := scratch[:0]
	for _, r := range st.followers {
		reps = append(reps, r)
	}
	st.mu.Unlock()
	if len(reps) == 0 {
		return reps
	}
	deadline := time.Now().Add(s.cfg.ReplTimeout)
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
					s.logf("votmd: shard %d: follower %d missed the replication deadline (acked %d, need %d); detached",
						sh.id, r.node, r.acked.Load(), seq)
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
	for i := range reps {
		reps[i] = nil
	}
	return reps[:0]
}

// moving reports whether sh is quiesced for a live handoff. Callers hold
// sh.walMu — the handoff capture takes it after setting moving, so a true
// here means the caller must answer BUSY rather than commit behind the
// captured state.
func (s *Server) moving(sh *shard) bool {
	cn := s.cluster
	return cn != nil && cn.states[sh.id].moving.Load()
}

// --- follower-side apply ---------------------------------------------------

// runReplicate serves one REPLICATE frame batch (or, with an empty payload,
// a probe for where this log ends). Frames are appended verbatim, applied to
// memory under walMu (so snapshots always capture state matching their seq),
// and flushed before the ack, which the completion list releases like a write
// group's — the returned Cursor is this log's NextSeq, which doubles as the
// resync signal when it is not what the leader expected.
func (w *groupWorker) runReplicate(t task) {
	s, sh := w.s, w.sh
	st := s.cluster.states[int(t.req.Shard)]
	resp := t.resp
	fail := func(status wire.Status, detail string) {
		resp.Status = status
		resp.SetDetail(detail)
		s.finish(t)
	}
	switch {
	case clusterRole(st.role.Load()) == roleLeader:
		resp.Status = wire.StatusWrongShard
		resp.Value = wire.WrongShardDetail(resp.Value[:0], st.epoch.Load())
		s.finish(t)
		return
	case sh.log == nil:
		fail(wire.StatusBadRequest, "replication requires group durability")
		return
	case sh.readOnly.Load():
		fail(wire.StatusTxFault, errShardReadOnly)
		return
	case len(t.req.Value) == 0:
		sh.walMu.Lock()
		resp.Cursor = sh.log.NextSeq()
		sh.walMu.Unlock()
		s.finish(t) // StatusOK
		return
	}

	sh.walMu.Lock()
	last, appErr := sh.log.AppendFrames(t.req.Value)
	if appErr != nil && !errors.Is(appErr, wal.ErrFrameGap) {
		sh.walMu.Unlock()
		status := wire.StatusBadRequest
		if sh.log.Failed() {
			s.noteShardWALFault(sh, appErr)
			status = wire.StatusTxFault
		}
		fail(status, appErr.Error())
		return
	}
	var applyErr error
	if last != 0 {
		applyErr = w.applyReplicatedFrames(st, t.req.Value, last)
	}
	next := sh.log.NextSeq()
	sh.walMu.Unlock()
	if applyErr != nil {
		// The log holds records memory could not apply: stop serving writes
		// (recovery replays the log and heals the divergence).
		s.noteShardWALFault(sh, applyErr)
		fail(wire.StatusTxFault, applyErr.Error())
		return
	}
	// A frame gap still answers OK: Cursor tells the leader where this log
	// actually ends, and the mismatch with its expectation triggers the
	// re-sync. Everything up to Cursor-1 IS durable here when the ack leaves.
	resp.Cursor = next
	if last == 0 {
		s.finish(t)
		return
	}
	sh.walAppends.Add(1)
	if appErr == nil {
		sh.walBytes.Add(uint64(len(t.req.Value)))
	}
	sh.ack.add([]groupOp{{t: t}}, last, 0)
}

// errStopApply ends a DecodeFrames walk early (frames past the appended
// prefix of a gapped batch must not apply).
var errStopApply = errors.New("stop apply")

// applyReplicatedFrames applies the frames with seq <= last to memory through
// the shard's redo applier — the state machine recovery replays with, so a
// cross-shard prepare and the records behind it are held until the streamed
// RecCommit. Caller holds walMu.
func (w *groupWorker) applyReplicatedFrames(st *clShard, b []byte, last uint64) error {
	ctx := context.Background()
	err := wal.DecodeFrames(b, func(seq uint64, recs []wal.Record) error {
		if seq > last {
			return errStopApply
		}
		return st.redo.apply(ctx, w.th, seq, recs)
	})
	if errors.Is(err, errStopApply) {
		return nil
	}
	return err
}

// runHandoff serves one snapshot-install phase (replication bootstrap or
// live handoff; only COMMIT's epoch distinguishes them). BEGIN wipes the
// shard — state, a held prepare, the log (reset past the captured seq) —
// ENTRIES installs the captured copy, and COMMIT snapshots it (the durable
// baseline replacing the WAL history this node never saw) and, with a real
// epoch, promotes this node to leader.
func (w *groupWorker) runHandoff(t task) {
	s, sh := w.s, w.sh
	st := s.cluster.states[int(t.req.Shard)]
	resp := t.resp
	fail := func(status wire.Status, detail string) {
		resp.Status = status
		resp.SetDetail(detail)
		w.s.finish(t)
	}
	// Leadership rejects a NEW install (a stray bootstrap must not wipe a
	// live leader) — but not the tail of one in progress: the map watch can
	// promote this node between the last ENTRIES and the COMMIT, and the
	// COMMIT must still land (it writes the installed state's durability
	// baseline). The installing flag is walMu-guarded; re-read it per phase.
	midInstall := func() bool {
		sh.walMu.Lock()
		defer sh.walMu.Unlock()
		return st.installing
	}
	if clusterRole(st.role.Load()) == roleLeader && (t.req.Phase == wire.HandoffBegin || !midInstall()) {
		resp.Status = wire.StatusWrongShard
		resp.Value = wire.WrongShardDetail(resp.Value[:0], st.epoch.Load())
		w.s.finish(t)
		return
	}
	if sh.readOnly.Load() {
		fail(wire.StatusTxFault, errShardReadOnly)
		return
	}
	switch t.req.Phase {
	case wire.HandoffBegin:
		sh.walMu.Lock()
		err := w.clearShard(st, t.req.Key)
		sh.walMu.Unlock()
		if err != nil {
			s.noteShardWALFault(sh, err)
			fail(wire.StatusTxFault, "handoff begin: "+err.Error())
			return
		}
	case wire.HandoffEntries:
		var recs []wal.Record
		if !wal.DecodeRecords(t.req.Value, &recs) {
			fail(wire.StatusBadRequest, "malformed handoff entries")
			return
		}
		sh.walMu.Lock()
		if !st.installing {
			sh.walMu.Unlock()
			fail(wire.StatusBadRequest, "no handoff install in progress")
			return
		}
		err := st.redo.apply(context.Background(), w.th, 0, recs) // nothing is held mid-install
		sh.walMu.Unlock()
		if err != nil {
			fail(wire.StatusTxFault, "handoff install: "+err.Error())
			return
		}
	case wire.HandoffCommit:
		sh.walMu.Lock()
		installing := st.installing
		st.installing = false
		sh.walMu.Unlock()
		if !installing {
			fail(wire.StatusBadRequest, "no handoff install in progress")
			return
		}
		// The snapshot is the installed state's durability baseline: the log
		// starts past the captured seq and replays nothing below it. Without
		// it a crash here would lose the install, so its failure fails the
		// handoff.
		if _, err := s.snapshotShard(sh, w.th); err != nil {
			fail(wire.StatusTxFault, "handoff snapshot: "+err.Error())
			return
		}
		if epoch := t.req.Key; epoch != 0 {
			st.epoch.Store(epoch)
			if clusterRole(st.role.Swap(uint32(roleLeader))) != roleLeader {
				s.logf("votmd: shard %d: promoted to leader by handoff (epoch %d)", int(t.req.Shard), epoch)
			}
		}
	default:
		fail(wire.StatusBadRequest, "bad handoff phase")
		return
	}
	resp.Status = wire.StatusOK
	resp.Cursor = sh.log.NextSeq()
	w.s.finish(t)
}

// clearShard wipes one shard for a snapshot install: a held prepare, every
// key, old snapshots, and the log — reset to start at seq+1, the first
// append after the captured state. Caller holds walMu.
func (w *groupWorker) clearShard(st *clShard, seq uint64) error {
	sh := w.sh
	st.redo.reset()
	sh.owed.Store(0)
	ctx := context.Background()
	var dels []wal.Record
	err := sh.view.AtomicRead(ctx, w.th, func(tx votm.Tx) error {
		dels = dels[:0]
		sh.idx.ForEach(tx, func(key, val uint64) { dels = append(dels, wal.Record{Kind: wal.RecDelete, Key: key}) })
		return nil
	})
	if err == nil {
		err = sh.applyRecords(ctx, w.th, dels)
	}
	if err != nil {
		return err
	}
	if sh.log != nil {
		if err := sh.log.Reset(seq + 1); err != nil {
			return err
		}
	}
	sh.snapSeq.Store(seq)
	if sh.dataDir != "" {
		// Pre-install snapshots describe the wiped lineage; a crash before
		// the COMMIT-phase snapshot must find none of them.
		if err := wal.PruneSnapshots(sh.dataDir, seq); err != nil {
			return err
		}
	}
	st.installing = true
	return nil
}
