// Group-commit execution. A connection reader holding one of a shard's
// executor tokens pops up to BatchMax queued requests from the shard's ring
// at a time and runs them as the group (conn.combine → runGroup): ONE view
// transaction on that shard — one RAC admission, one begin/validate/commit
// (at Q == 1 a single lock acquisition) and one WAL append amortized over K
// members: PUT/DELETE/CAS requests and
// ATOMIC batches whose keys all live on this shard, each interpreted by
// multiBatch (store.go) with its own validation pass and verdict — work that
// can conflict; a point GET never gets here (conn.serveGet). The group
// orchestrates and implements no store verb: it reserves once for all its
// members, calls the shard's kernel per member inside the transaction, and
// settles once. It plans nothing either: the connection reader routed every
// request (conn.dispatch), and work spanning shards went to the round
// coordinator (round.go) — the server's only other executor.
//
// No executor waits on a flush. A durable group's built responses go on the
// shard's completion list (ackStage), keyed by (WAL seq, doubt xid), and the
// executor returns to the ring; the log's one flusher flushes while anything
// listed is unflushed, and a group is answered — by the flusher, or by
// whoever settles a round — once its seq is flushed, replicated under cluster
// leadership, and the round it logged behind is settled. A cross-shard
// round's share of the log is listed the same way (addShare): the last share
// released settles the round (round.go). The list holds at most
// Config.QueueDepth unanswered ops: an executor that finds it full waits for a
// release, the ring fills meanwhile, and dispatch says BUSY.
//
// Per-request outcomes (NOT_FOUND, CAS_MISMATCH, created flags, an ATOMIC's
// BAD_REQUEST) stay per-request statuses; a conflict abort re-executes the
// whole group through the runtime's retry-budget/escalation path; an injected
// panic fails only the faulting group, every member still answered (TxFault).
// Grouping is a throughput optimization, not a protocol feature: clients see
// ungrouped per-request semantics, except that requests grouped together
// commit atomically as a side effect (never less isolation, sometimes more).
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"votm"
	"votm/internal/wal"
	"votm/wire"
)

// groupOp is one member of a grouped transaction.
type groupOp struct {
	t task
	// slot is a PUT's or CAS's slot in the executor's effects (an ATOMIC
	// member's are in its interpreter state, t.batch).
	slot int
}

// ackGroup is a committed write group on its shard's completion list: batch
// appended, memory effects applied, responses built. Its answer waits for seq
// to be flushed (and replicated, leading a cluster shard) and for round doubt
// — the shard's doubt mark at the append — to be settled: the batch replays
// only if that round does. The list owns ops until release recycles it. An
// entry with round set is that round's share of this log — what it appended
// at seq — and releasing it tells the flight (roundCoordinator.shareDone).
type ackGroup struct {
	ops        []groupOp
	round      *flight
	seq, doubt uint64
	flushed    bool
}

// AckStats counts the acknowledgement stages' work over the durable shards:
// flush cycles started, listed groups released (answered or failed), those
// (and rare state captures) that found the round they logged behind still in
// doubt, the most unanswered ops one list held, executors that found a list
// full and waited, and the time the flushers spent parked out of the time they
// existed.
type AckStats struct {
	Flushes, Groups, Gated, HighWater, Stalls, IdleNs, UpNs uint64
}

// AckStats returns the stage counters. In-process only, like RoundStats; all
// zero when no shard has a WAL.
func (s *Server) AckStats() (sum AckStats) {
	for _, sh := range s.shards {
		if a := sh.ack; a != nil {
			a.mu.Lock()
			st := a.stats
			a.mu.Unlock()
			sum.Flushes, sum.Groups, sum.Gated, sum.Stalls = sum.Flushes+st.Flushes, sum.Groups+st.Groups, sum.Gated+st.Gated, sum.Stalls+st.Stalls
			sum.HighWater = max(sum.HighWater, st.HighWater)
			sum.IdleNs, sum.UpNs = sum.IdleNs+st.IdleNs, sum.UpNs+uint64(time.Since(s.start))
		}
	}
	return sum
}

// ackStage is a durable shard's acknowledgement stage: the completion list
// and the one flusher goroutine of the shard's log (docs/ALGORITHMS.md, "Flush
// amortization"). New builds it only for a shard with a WAL, so a
// durability-off server runs none of this; a nil stage has nothing listed.
type ackStage struct {
	s  *Server
	sh *shard

	mu sync.Mutex
	// cond is broadcast on every change: a listing wakes the parked flusher, a
	// release a stalled executor or a drain barrier.
	cond sync.Cond
	list []ackGroup // in seq order; at most s.cfg.QueueDepth ops in all
	ops  int
	free [][]groupOp // released groups' op slices: listing allocates nothing in steady state
	// settled is the newest settled round among those that logged a prepare
	// here: rounds settle in xid order, so it only grows and covers every
	// earlier one. faulted is the first round that settled with a fault,
	// roundErr the fault, sticky from that xid upward (round.go).
	settled, faulted uint64
	roundErr         error
	quit             bool
	stats            AckStats
	done             chan struct{} // closed when the flusher has exited
}

func newAckStage(s *Server, sh *shard) *ackStage {
	a := &ackStage{s: s, sh: sh, done: make(chan struct{})}
	a.cond.L = &a.mu
	go a.flusher()
	return a
}

// add lists a committed group behind its appended batch and wakes the
// flusher; the executor gets a recycled op slice for its next group. A full
// list makes the executor wait for a release first — the shard's
// back-pressure: its ring fills meanwhile and dispatch answers BUSY.
func (a *ackStage) add(ops []groupOp, seq, doubt uint64) (next []groupOp) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if bound := a.s.cfg.QueueDepth - len(ops); a.ops > max(bound, 0) {
		a.stats.Stalls++
		for a.ops > max(bound, 0) {
			a.cond.Wait()
		}
	}
	a.ops += len(ops)
	// Rival executors append under walMu but list after it: keep seq order.
	i := len(a.list)
	for a.list = append(a.list, ackGroup{}); i > 0 && a.list[i-1].seq > seq; i-- {
		a.list[i] = a.list[i-1]
	}
	a.list[i] = ackGroup{ops: ops, seq: seq, doubt: doubt}
	if doubt > a.settled {
		a.stats.Gated++
	}
	a.stats.HighWater = max(a.stats.HighWater, uint64(a.ops))
	if n := len(a.free); n > 0 {
		next, a.free = a.free[n-1], a.free[:n-1]
	}
	a.cond.Broadcast()
	return next
}

// addShare lists round fl's share of this log, just appended at seq, for the
// flusher to cover like a group's batch. The caller holds walMu, so seq is the
// newest listed; a share holds no ops, so the list's bound never blocks it.
func (a *ackStage) addShare(fl *flight, seq uint64) {
	a.mu.Lock()
	a.list = append(a.list, ackGroup{round: fl, seq: seq})
	a.cond.Broadcast()
	a.mu.Unlock()
}

// drain is the one wait on a flush an executor has left, the barrier in front
// of whatever rewrites the log beneath the list (a REPLICATE or HANDOFF stream
// op): it returns once every listed group is flushed and off the list.
func (a *ackStage) drain() {
	if a == nil {
		return
	}
	a.mu.Lock()
	for len(a.list) > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// stop retires the flusher; the caller has seen the list drain for good.
func (a *ackStage) stop() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.quit = true
	a.cond.Broadcast()
	a.mu.Unlock()
	<-a.done
}

// settleRound ends round xid's doubt on this shard — err is the round's
// verdict — and releases the flushed groups that waited for exactly that.
// Rounds settle in xid order (roundCoordinator.shareDone).
func (a *ackStage) settleRound(xid uint64, err error) {
	a.mu.Lock()
	if a.settled = xid; err != nil && a.faulted == 0 {
		a.faulted, a.roundErr = xid, err
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	a.release()
}

// awaitRound blocks until round xid (the shard's doubt mark; 0 = never in a
// round, the only value a shard without a stage has) is durable on every
// participant — the condition under which recovery commits it and everything
// logged behind it — and returns the fault that left it undecided, if any.
// Only a state capture waits here; a listed group is released instead.
func (a *ackStage) awaitRound(xid uint64) error {
	if xid == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.settled < xid {
		a.stats.Gated++
		for a.settled < xid {
			a.cond.Wait()
		}
	}
	if a.faulted != 0 && xid >= a.faulted {
		return a.roundErr
	}
	return nil
}

// unflushed is the newest listed sequence no flush cycle has covered yet, 0
// when there is none; the caller holds mu.
func (a *ackStage) unflushed() uint64 {
	for i := len(a.list) - 1; i >= 0; i-- {
		if !a.list[i].flushed {
			return a.list[i].seq
		}
	}
	return 0
}

// flusher is the shard log's one flusher. While anything listed is unflushed
// it flushes through the newest such sequence — a flush cycle is a window:
// whatever was appended when it starts commits with it — waits out the
// followers under cluster leadership, marks what the cycle covered and
// releases; with nothing to flush it parks. A failed flush is a WAL fault: the
// memory commits happened, durability is unknown, the shard goes read-only
// and release fails everything listed.
func (a *ackStage) flusher() {
	defer close(a.done)
	for {
		a.mu.Lock()
		target := a.unflushed()
		for ; target == 0 && !a.quit; target = a.unflushed() {
			t := time.Now()
			a.cond.Wait()
			a.stats.IdleNs += uint64(time.Since(t))
		}
		if target != 0 {
			a.stats.Flushes++
		}
		a.mu.Unlock()
		if target == 0 {
			return
		}
		if err := a.sh.log.Sync(target); err != nil {
			a.s.noteShardWALFault(a.sh, err)
		} else if m := a.s.cfg.Cluster; m != nil {
			m.WaitReplicated(a.sh.id, target)
		}
		a.mu.Lock()
		for i := range a.list {
			a.list[i].flushed = a.list[i].flushed || a.list[i].seq <= target
		}
		a.mu.Unlock()
		a.release()
	}
}

// release answers, oldest first, every leading listed group that is flushed
// and whose round, if it logged behind one, is settled — TxFault when that
// round faulted, or this log did: a failed log makes nothing more durable, so
// everything listed goes. A round's share leaves the list the same way and
// tells its flight. The flusher calls release after each cycle and whoever
// settles a round right after (settleRound): whichever of a group's
// conditions comes true last releases it.
func (a *ackStage) release() {
	var ops []groupOp // the group just answered, on its way to the free list
	for {
		a.mu.Lock()
		if ops != nil {
			a.free = append(a.free, ops)
			ops = nil
		}
		if len(a.list) == 0 {
			a.mu.Unlock()
			return
		}
		g := a.list[0]
		var err error
		switch {
		case a.sh.log.Failed():
			err = wal.ErrFailed
		case !g.flushed || a.settled < g.doubt:
			a.mu.Unlock()
			return
		case a.faulted != 0 && g.doubt >= a.faulted:
			err = a.roundErr
		}
		n := copy(a.list, a.list[1:])
		a.list[n], a.list = ackGroup{}, a.list[:n]
		if g.round == nil {
			a.ops -= len(g.ops)
			a.stats.Groups++
		}
		a.cond.Broadcast()
		a.mu.Unlock()
		switch {
		case g.round != nil:
			g.round.rc.shareDone(g.round, err)
			continue
		case err != nil:
			a.s.failGroup(g.ops, wire.StatusTxFault, "wal: "+err.Error())
		default:
			a.s.finishGroup(g.ops)
		}
		ops = a.s.recycleOps(g.ops)
	}
}

// groupWorker is one executor's retained execution state: a connection
// reader's (conn.combine), which binds it to the shard whose token it holds.
// The popped batch, the op slots, the commit-side free lists and the
// amortized request context are all reused across groups, so the
// steady-state execution path allocates nothing.
type groupWorker struct {
	s  *Server
	sh *shard
	th *votm.Thread

	batch []task
	ops   []groupOp
	// self/selfTx/fx are the group's one-participant view of the
	// interpreter's (participants, handles, effects) triple: this shard, the
	// group transaction, and the group's one reservation and effect list —
	// every member's, point op or ATOMIC, so a group takes the allocator lock
	// once to reserve and once to settle.
	self   []*shard
	selfTx []votm.Tx
	fx     []effects
	recs   []wal.Record // redo-record scratch (durability on)
	valBuf []byte       // SubAdd post-image scratch backing recs

	reqContext
	// pg is the page state of the connection whose reader this is (scan.go).
	pg pager
}

func newGroupWorker(s *Server, sh *shard, th *votm.Thread) *groupWorker {
	return &groupWorker{s: s, sh: sh, th: th, batch: make([]task, 0, s.cfg.BatchMax), self: []*shard{sh},
		selfTx: make([]votm.Tx, 1), fx: make([]effects, 1), reqContext: reqContext{timeout: s.cfg.RequestTimeout}}
}

// reqContext is an executor's amortized request context. Creating
// context.WithTimeout per request would put two allocations and a timer on
// the hot path, so one context is reused until half its budget has elapsed:
// every group (and every round) observes a deadline between timeout/2 and
// timeout away.
type reqContext struct {
	timeout time.Duration
	cur     context.Context
	cancel  context.CancelFunc
	renewAt time.Time
}

// ctx returns the current context, renewing it when it is half spent.
func (r *reqContext) ctx() context.Context {
	now := time.Now()
	if r.cur == nil || now.After(r.renewAt) || r.cur.Err() != nil {
		r.close()
		r.cur, r.cancel = context.WithTimeout(context.Background(), r.timeout)
		r.renewAt = now.Add(r.timeout / 2)
	}
	return r.cur
}

func (r *reqContext) close() {
	if r.cancel != nil {
		r.cancel()
	}
}

// bind points a reader's state at the shard whose ring it is about to drain.
func (w *groupWorker) bind(sh *shard) { w.sh, w.self[0] = sh, sh }

// run executes one drained batch as a single grouped transaction — point
// ops and same-shard ATOMIC batches alike — with cluster stream ops run one by
// one ahead of it. Every task is answered exactly once.
func (w *groupWorker) run(batch []task) {
	for _, t := range batch {
		if t.req.Op == wire.OpReplicate || t.req.Op == wire.OpHandoff {
			// Cluster stream ops carry WAL sequences, not keys. Listed groups
			// are answered first so AppendFrames and installs never interleave
			// with an unflushed append.
			w.sh.ack.drain()
			if seq := w.s.cfg.Cluster.Stream(w.th, t.req, t.resp); seq != 0 {
				w.sh.ack.add([]groupOp{{t: t}}, seq, 0)
			} else {
				w.s.finish(t)
			}
			continue
		}
		w.ops = append(w.ops, groupOp{t: t})
	}
	// A listed group's op slice is the completion list's now.
	if len(w.ops) > 0 && !w.runGroup() {
		w.ops = w.s.recycleOps(w.ops)
	}
}

// acquireBatch hands out recycled ATOMIC interpreter state bound to one
// batch's subs, with its routing plan resolved. The free list is the
// server's: a connection reader acquires every batch, and whoever settles it
// — the executor for a group member, the round coordinator for a spanning
// batch — releases it. An empty list allocates.
func (s *Server) acquireBatch(subs []wire.Sub) *multiBatch {
	var b *multiBatch
	select {
	case b = <-s.batchFree:
	default:
		b = new(multiBatch)
	}
	b.subs = subs
	s.atomicPlan(b)
	return b
}

// releaseBatch recycles a settled batch, dropping every reference it holds
// to its request and (through results) its response. A full free list drops
// the state: the list is bounded like the queues that feed it.
func (s *Server) releaseBatch(b *multiBatch) {
	clear(b.parts)
	*b = multiBatch{parts: b.parts, owner: b.owner, slots: b.slots, effLen: b.effLen}
	select {
	case s.batchFree <- b:
	default:
	}
}

// recycleOps drops an answered group's references (its requests and responses
// are back with their connections) and returns the emptied slice for reuse.
func (s *Server) recycleOps(ops []groupOp) []groupOp {
	for i := range ops {
		if b := ops[i].t.batch; b != nil {
			s.releaseBatch(b)
		}
		ops[i] = groupOp{}
	}
	return ops[:0]
}

// finish answers one task.
func (s *Server) finish(t task) { s.finishGroup([]groupOp{{t: t}}) }

// txFault is a panic recovered from a transaction body (an injected fault):
// the runtime rolled the attempt back, and the members answer TxFault.
type txFault struct{ v any }

func (f txFault) Error() string { return fmt.Sprint(f.v) }

// errStatus maps a transaction error to its wire status and detail.
func errStatus(err error) (wire.Status, string) {
	switch {
	case errors.As(err, new(txFault)):
		return wire.StatusTxFault, err.Error()
	case errors.Is(err, errBadAdd):
		return wire.StatusBadRequest, err.Error()
	case errors.Is(err, errShardMoving):
		// BUSY promises the request was not executed: the handoff barrier
		// refuses before execution.
		return wire.StatusBusy, err.Error()
	case errors.Is(err, votm.ErrViewDestroyed):
		return wire.StatusShutdown, "shard shutting down"
	default:
		return wire.StatusInternal, err.Error()
	}
}

// errShardReadOnly is the TxFault detail for writes refused by a shard that
// lost its WAL.
const errShardReadOnly = "shard is read-only after a WAL failure"

// errShardMoving refuses writes quiesced by a live handoff (Shard.Moving);
// mapped to StatusBusy: nothing executed, the client's retry re-routes.
var errShardMoving = errors.New("server: shard handoff in progress")

// appendWAL appends one redo batch to sh's log and meters it; the caller
// holds walMu. A commit annotation the shard owes (shard.owed) rides in
// front: recs may be shifted in place, or copied when it is full.
func appendWAL(sh *shard, recs []wal.Record) (uint64, error) {
	if sh.owed.Load() != 0 {
		recs = append(recs, wal.Record{})
		copy(recs[1:], recs)
		recs[0] = wal.Record{Kind: wal.RecCommit, Key: sh.owed.Swap(0)}
	}
	seq, n, err := sh.log.Append(recs)
	if err != nil {
		return 0, err
	}
	sh.walAppends.Add(1)
	sh.walBytes.Add(uint64(n))
	return seq, nil
}

// noteShardWALFault flips a shard read-only after a WAL append/fsync
// failure. The failed group IS applied in memory — only its durability is
// unknown — so the shard stops accepting writes rather than letting memory
// and log diverge further; reads keep serving.
func (s *Server) noteShardWALFault(sh *shard, err error) {
	if !sh.readOnly.Swap(true) {
		s.logf("votmd: shard %d: WAL failure, shard now read-only: %v", sh.id, err)
	}
}

// runGroup executes w.ops as one grouped transaction. listed reports that
// the group committed onto the completion list, which owns the op slice and
// answers it; otherwise every member is answered already.
func (w *groupWorker) runGroup() (listed bool) {
	// The group's ONE reservation, outside the transaction: a slot per PUT,
	// CAS and linking ATOMIC sub, carved out in one allocator lock
	// acquisition.
	sh, ops, fx := w.sh, w.ops, &w.fx[0]
	readonly := true
	for i := range ops {
		op := &ops[i]
		req := op.t.req
		switch req.Op {
		case wire.OpPut, wire.OpCAS:
			readonly = false
			op.slot = fx.want(sh, req.Key, len(req.Value))
		case wire.OpAtomic:
			b := op.t.batch
			readonly = readonly && !b.writes()
			b.results = op.t.resp.Subs[:0]
			b.want(w.self, w.fx)
		default:
			readonly = false
		}
	}
	// A durable write group runs its execution and WAL append under walMu —
	// commit order equals log order — and releases no response before its
	// durability point. A shard whose WAL already failed is read-only:
	// refuse the whole write group with TxFault rather than diverge.
	durable := sh.log != nil && !readonly

	// The runtime rolls back and releases admission before a body panic
	// (an injected fault) reaches us: fail just this group, but answer
	// every member — no request may be lost to a chaos event — and hand the
	// group's reservation back.
	defer func() {
		if r := recover(); r != nil {
			w.s.logf("votmd: shard %d: %v in grouped transaction of %d", sh.id, r, len(ops))
			w.abortGroup(ops, wire.StatusTxFault, fmt.Sprint(r))
		}
	}()
	walLocked := false
	defer func() {
		// LIFO: runs before the recover defer, so a body panic never leaves
		// walMu held.
		if walLocked {
			sh.walMu.Unlock()
		}
	}()
	if err := sh.reserve(fx); err != nil {
		// reserve grows a live view, so this one is gone (the server is
		// shutting down) and the group's transaction could only fail too.
		status, detail := errStatus(err)
		w.abortGroup(ops, status, detail)
		return false
	}
	if durable && sh.readOnly.Load() {
		w.abortGroup(ops, wire.StatusTxFault, errShardReadOnly)
		return false
	}
	if durable {
		sh.walMu.Lock()
		walLocked = true
		if sh.moving.Load() {
			// The handoff capture acquires walMu after setting moving:
			// reaching here with it set means this group would commit behind
			// the captured state — refuse every op instead (BUSY).
			w.abortGroup(ops, wire.StatusBusy, errShardMoving.Error())
			return false
		}
	}

	// The body may be re-executed after a conflict: every per-op outcome is
	// rebuilt, and the effects forget the earlier attempt (begin). No path
	// returns a non-nil error after a write, so the group is safe under
	// Q == 1 lock-mode execution (which has no rollback): per-op failures are
	// statuses, never aborts.
	fn := func(tx votm.Tx) error {
		fx.begin()
		w.selfTx[0] = tx
		for i := range ops {
			op := &ops[i]
			if b := op.t.batch; b != nil {
				// The member keeps its own verdict: a refused batch wrote
				// nothing (exec validates before its first write) and its
				// group-mates carry on.
				b.err = b.exec(w.self, w.selfTx, w.fx)
				continue
			}
			req, resp := op.t.req, op.t.resp
			resp.Status = wire.StatusOK
			resp.Value = resp.Value[:0]
			resp.Created = false
			switch req.Op {
			case wire.OpPut:
				resp.Created = sh.put(tx, fx, op.slot, req.Key, req.Value)
			case wire.OpDelete:
				if !sh.del(tx, fx, req.Key) {
					resp.Status = wire.StatusNotFound
				}
			case wire.OpCAS:
				resp.Status, resp.Value = sh.cas(tx, fx, op.slot, req.Key, req.OldValue, req.Value, resp.Value)
			}
		}
		return nil
	}

	var err error
	if readonly {
		err = sh.view.AtomicRead(w.ctx(), w.th, fn)
	} else {
		err = sh.view.Atomic(w.ctx(), w.th, fn)
	}
	if err != nil {
		status, detail := errStatus(err)
		w.abortGroup(ops, status, detail)
		return false
	}
	sh.groups.Add(1)
	sh.groupOps.Add(uint64(len(ops)))

	// Committed. A durable group's redo batch — the post-images of every
	// member that mutated state — is appended before walMu drops (so a later
	// group's batch can never overtake it in the log); the flush is the
	// flusher's business.
	var (
		walSeq, doubt uint64
		walErr        error
	)
	if durable {
		w.recs, w.valBuf = appendGroupRecords(w.recs[:0], w.valBuf[:0], ops)
		if len(w.recs) > 0 {
			walSeq, walErr = appendWAL(sh, w.recs)
		}
		doubt = sh.doubt
		sh.walMu.Unlock()
		walLocked = false
	}

	// Settle the group's storage — every member's unlinked slots and
	// displaced blocks in one allocator lock acquisition, the key counter —
	// and give each ATOMIC member its answer. The settle is due even when the
	// WAL failed: the memory commit happened.
	sh.settle(fx, true)
	for i := range ops {
		op := &ops[i]
		switch b := op.t.batch; {
		case b == nil:
		case b.err != nil:
			status, detail := errStatus(b.err)
			op.t.resp.Status = status
			op.t.resp.SetDetail(detail)
		default:
			op.t.resp.Subs = b.results
		}
	}

	if walErr != nil {
		// The append failed before any flush: this group is applied in
		// memory with durability unknown — answer it TxFault and stop
		// accepting writes (the listed groups' flush fails the same way).
		w.s.noteShardWALFault(sh, walErr)
		w.s.failGroup(ops, wire.StatusTxFault, "wal: "+walErr.Error())
		return false
	}
	if walSeq == 0 {
		// Nothing mutated state (all NOT_FOUND / CAS_MISMATCH / refused
		// batches): no redo batch, no durability point to wait for.
		w.s.finishGroup(ops)
		return false
	}

	// The answer is the acknowledgement stage's: an idle log flushes at once
	// (a synchronous client waits one flush), a busy one takes every group
	// appended during the flush in flight into the next.
	w.ops = sh.ack.add(ops, walSeq, doubt)
	return true
}

// abortGroup fails a group whose transaction did not commit: the reservation
// goes back and every member is answered with the one status.
func (w *groupWorker) abortGroup(ops []groupOp, status wire.Status, detail string) {
	w.sh.settle(&w.fx[0], false)
	w.s.failGroup(ops, status, detail)
}

// failGroup answers every member of a group with one failure status.
func (s *Server) failGroup(ops []groupOp, status wire.Status, detail string) {
	for i := range ops {
		ops[i].t.resp.Status = status
		ops[i].t.resp.SetDetail(detail)
	}
	s.finishGroup(ops)
}

// finishGroup answers every op of one group. Consecutive responses for the
// same connection are chained and handed to its writer in one channel send —
// a pipelined burst from one client costs one hand-off per group instead of
// one per request — and the chain settles with its connection once: its
// requests go back in one critical section, and pending drops by the chain's
// length after the send, so a graceful drain can never close an out channel
// with a chain still in flight.
func (s *Server) finishGroup(ops []groupOp) {
	for i := 0; i < len(ops); {
		c := ops[i].t.c
		head, tail := ops[i].t.resp, ops[i].t.resp
		j := i + 1
		for ; j < len(ops) && ops[j].t.c == c; j++ {
			tail.Next = ops[j].t.resp
			tail = ops[j].t.resp
		}
		c.reqs.mu.Lock()
		for k := i; k < j; k++ {
			if reqFits(ops[k].t.req) {
				c.reqs.put(ops[k].t.req)
			}
		}
		c.reqs.mu.Unlock()
		c.send(head)
		c.pending.Add(i - j)
		i = j
	}
}
