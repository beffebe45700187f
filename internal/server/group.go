// Group-commit execution. A shard worker drains up to the controller's
// group bound of queued requests per wakeup and runs them as the group
// (runGroup): ONE view transaction on the worker's own shard — one RAC
// admission, one begin/validate/commit (at Q == 1 a single lock acquisition),
// one WAL append and one lagged flush amortized over K members. Members are
// GET/PUT/DELETE/CAS requests and ATOMIC batches whose keys all live on this
// shard; an ATOMIC member is interpreted by multiBatch (store.go) with its
// own validate-before-first-write pass and its own verdict. The group
// orchestrates — statuses, the WAL append, the lagged flush — and implements
// no store verb: it reserves once for all its members, calls the shard's
// kernel (store.go) per member inside the transaction, and settles once.
//
// A worker plans nothing: the connection reader routed every request before
// it entered this shard's ring (conn.dispatch), an ATOMIC member arrives with
// its plan attached (task.batch), and work that involves several sub-shards —
// a spanning ATOMIC, a SCAN page — never enters a ring: the reader hands it to
// the server's round coordinator (round.go). The group and the round are the
// server's only two executors, and a plan a split made stale is refused by
// the in-transaction route check (BUSY), here as there.
//
// Per-request outcomes (NOT_FOUND, CAS_MISMATCH, created flags, an ATOMIC's
// BAD_REQUEST) stay per-request statuses; a conflict abort re-executes the
// whole group through the runtime's retry-budget/escalation path; an
// injected panic fails only the faulting group, with every member still
// answered (StatusTxFault).
//
// Grouping is a server-side throughput optimization, not a protocol
// feature: clients observe the same per-request semantics as ungrouped
// execution, except that requests grouped together commit atomically as a
// side effect (never less isolation, sometimes more).
package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"votm"
	"votm/internal/wal"
	"votm/wire"
)

// groupOp is one member of a grouped transaction.
type groupOp struct {
	t    task
	resp *wire.Response
	// slot is a PUT's or CAS's slot in the worker's effects (an ATOMIC
	// member's are in its interpreter state, t.batch).
	slot int
}

// maxSyncLag bounds how many committed-and-appended write groups a worker
// may hold back awaiting one shared flush (see pending). Lag turns the
// per-group fdatasync into a per-lag-window one under a standing queue; the
// bound keeps the added commit latency to a few group executions.
const maxSyncLag = 4

// pendingGroup is a committed write group whose redo batch is appended but
// not yet flushed: its responses are built and its memory effects applied,
// only the durability point is outstanding. The ops slice is owned by the
// pending list until flushPending answers and recycles it.
type pendingGroup struct {
	ops []groupOp
	seq uint64 // WAL sequence of the group's redo batch
	// doubt is the shard's doubt mark when the batch was appended: the batch
	// replays only if that round does, so its answers wait for the round too.
	doubt uint64
}

// groupWorker is one shard worker's retained execution state: the op
// slots, the commit-side free lists and the amortized request context are
// all reused across groups, so the steady-state execution path allocates
// nothing.
type groupWorker struct {
	s  *Server
	sh *shard
	th *votm.Thread

	ops []groupOp
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

	// pending holds appended-but-unflushed groups (group-commit across
	// groups: one fdatasync covers the whole list); opsFree recycles their
	// op slices so lagging allocates nothing in steady state.
	pending []pendingGroup
	opsFree [][]groupOp

	// repScratch recycles waitReplicated's follower snapshot (cluster mode).
	repScratch []*replica

	reqContext
}

func newGroupWorker(s *Server, sh *shard, th *votm.Thread) *groupWorker {
	return &groupWorker{s: s, sh: sh, th: th, self: []*shard{sh}, selfTx: make([]votm.Tx, 1), fx: make([]effects, 1),
		reqContext: reqContext{timeout: s.cfg.RequestTimeout}}
}

func (w *groupWorker) close() {
	w.flushPending()
	w.reqContext.close()
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

// run executes one drained batch as a single grouped transaction — point
// ops and same-shard ATOMIC batches alike — with cluster stream ops run one by
// one ahead of it. Every task is answered exactly once.
func (w *groupWorker) run(batch []task) {
	for _, t := range batch {
		if t.req.Op == wire.OpReplicate || t.req.Op == wire.OpHandoff {
			// Cluster stream ops carry WAL sequences, not keys. Lagged groups
			// settle first so AppendFrames and installs never interleave with
			// an unflushed append.
			w.flushPending()
			if t.req.Op == wire.OpReplicate {
				w.runReplicate(t)
			} else {
				w.runHandoff(t)
			}
			continue
		}
		w.ops = append(w.ops, groupOp{t: t})
	}
	if len(w.ops) > 0 && w.runGroup() {
		// The group was stashed awaiting a shared flush and its op slice is
		// now owned by the pending list: start a fresh one.
		w.ops = nil
		if n := len(w.opsFree); n > 0 {
			w.ops, w.opsFree = w.opsFree[n-1], w.opsFree[:n-1]
		}
		return
	}
	w.ops = w.recycleOps(w.ops)
}

// acquireBatch hands out recycled ATOMIC interpreter state bound to one
// batch's subs, with its routing plan resolved. The free list is the
// server's: a connection reader acquires every batch, and whoever settles it
// — the worker for a group member, the round coordinator for a spanning
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

// recycleOps drops an answered group's request/response references so the
// pools can recycle freely, and returns the emptied slice for reuse.
func (w *groupWorker) recycleOps(ops []groupOp) []groupOp {
	for i := range ops {
		if b := ops[i].t.batch; b != nil {
			w.s.releaseBatch(b)
		}
		ops[i] = groupOp{}
	}
	return ops[:0]
}

// flushPending settles every lagged group with one shared flush: a single
// wal.Log.Sync at the newest pending sequence (usually one fdatasync, often
// zero when another worker's flush already covered it), then answers the
// groups oldest-first — each only once the round it logged behind, if any,
// is durable on every participant (in steady state the same flush). A flush
// failure, the group's or that round's, is a WAL fault: the memory commits
// happened, durability is unknown, every member answers TxFault and the
// shard goes read-only.
func (w *groupWorker) flushPending() {
	if len(w.pending) == 0 {
		return
	}
	last := w.pending[len(w.pending)-1].seq
	err := w.sh.log.Sync(last)
	if err == nil {
		// Semi-sync: the whole lag window waits on the newest sequence
		// before any member answers (no-op outside cluster leadership).
		w.repScratch = w.s.waitReplicated(w.sh, last, w.repScratch)
	} else {
		w.s.noteShardWALFault(w.sh, err)
	}
	for pi := range w.pending {
		g := &w.pending[pi]
		if err == nil {
			err = w.s.awaitRound(g.doubt) // a faulted round fails the later groups too: the mark stays
		}
		if err != nil {
			w.failGroup(g.ops, wire.StatusTxFault, "wal: "+err.Error())
		} else {
			w.finishGroup(g.ops)
		}
		w.opsFree = append(w.opsFree, w.recycleOps(g.ops))
		g.ops = nil
	}
	w.pending = w.pending[:0]
}

// finish answers one task and retires its request.
func (s *Server) finish(t task, resp *wire.Response) {
	t.c.send(resp)
	t.c.pending.Done()
	s.reqWG.Done()
	t.req.Release()
}

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
	case errors.Is(err, errStaleRoute):
		// BUSY promises the request was not executed; errStaleRoute aborts
		// before the batch's first write, so the promise holds.
		return wire.StatusBusy, err.Error()
	case errors.Is(err, errShardMoving):
		// Same promise: the handoff barrier refuses before execution.
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

// runGroup executes w.ops as one grouped transaction. It returns true when
// the committed group was stashed on the pending list (ownership of w.ops
// moves to the flush) and false when every member was answered inline.
func (w *groupWorker) runGroup() bool {
	// Response slots and the group's ONE reservation, outside the
	// transaction: a slot per PUT, CAS and linking ATOMIC sub, carved out in
	// one allocator lock acquisition.
	sh, ops, fx := w.sh, w.ops, &w.fx[0]
	readonly := true
	for i := range ops {
		op := &ops[i]
		req := op.t.req
		resp := wire.NewResponse()
		resp.Op, resp.ID = req.Op, req.ID
		op.resp = resp
		switch req.Op {
		case wire.OpGet:
		case wire.OpPut, wire.OpCAS:
			readonly = false
			op.slot = fx.want(sh, req.Key, len(req.Value))
		case wire.OpAtomic:
			b := op.t.batch
			readonly = readonly && !b.writes()
			b.results = resp.Subs[:0]
			b.want(w.self, w.fx)
		default:
			readonly = false
		}
	}
	if err := sh.reserve(fx); err != nil {
		// reserve grows a live view, so this one is gone (the server is
		// shutting down) and the group's transaction could only fail too.
		status, detail := errStatus(err)
		w.abortGroup(ops, status, detail)
		return false
	}

	// A read group serves committed memory state and never waits on a
	// flush; settle this worker's lagged write groups first so a client
	// that saw its write acknowledged cannot then read older state.
	if readonly {
		w.flushPending()
	}

	// A durable write group runs its execution and WAL append under walMu —
	// commit order equals log order — and releases no response before its
	// durability point. A shard whose WAL already failed is read-only:
	// refuse the whole write group with TxFault rather than diverge.
	durable := sh.log != nil && !readonly
	if durable && sh.readOnly.Load() {
		w.abortGroup(ops, wire.StatusTxFault, errShardReadOnly)
		return false
	}

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
	if durable {
		sh.walMu.Lock()
		walLocked = true
		if w.s.moving(sh) {
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
				b.err = b.exec(w.s, w.self, w.selfTx, w.fx)
				continue
			}
			req, resp := op.t.req, op.resp
			resp.Status = wire.StatusOK
			resp.Value = resp.Value[:0]
			resp.Created = false
			if w.s.shards[sh.id].route(req.Key) != sh {
				// A split moved this key between dispatch and execution.
				// Splits publish under this view's exclusive section, so the
				// verdict is authoritative in here: answer BUSY (retryable)
				// instead of operating on a stale owner. Only the moved
				// requests drop out; the rest of the group still commits.
				resp.Status = wire.StatusBusy
				continue
			}
			found := true
			switch req.Op {
			case wire.OpGet:
				resp.Value, found = sh.get(tx, req.Key, resp.Value)
			case wire.OpPut:
				resp.Created = sh.put(tx, fx, op.slot, req.Key, req.Value)
			case wire.OpDelete:
				found = sh.del(tx, fx, req.Key)
			case wire.OpCAS:
				resp.Status, resp.Value = sh.cas(tx, fx, op.slot, req.Key, req.OldValue, req.Value, resp.Value)
			}
			if !found {
				resp.Status = wire.StatusNotFound
			}
		}
		return nil
	}

	var err error
	if readonly {
		err = sh.view.AtomicReadGroup(w.ctx(), w.th, len(ops), fn)
	} else {
		err = sh.view.AtomicGroup(w.ctx(), w.th, len(ops), fn)
	}
	if err != nil {
		status, detail := errStatus(err)
		w.abortGroup(ops, status, detail)
		return false
	}

	// Committed. A durable group's redo batch — the post-images of every
	// member that mutated state — is appended before walMu drops (so a later
	// group's batch can never overtake it in the log); the flush happens
	// after, at most once per group and shared whenever possible.
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
			op.resp.Status = status
			op.resp.SetDetail(detail)
		default:
			op.resp.Subs = b.results
		}
	}

	if walErr != nil {
		// The append failed before any flush: this group is applied in
		// memory with durability unknown — answer it TxFault, stop
		// accepting writes, and settle the lagged groups (their flush will
		// fail the same way and TxFault them too).
		w.s.noteShardWALFault(sh, walErr)
		w.failGroup(ops, wire.StatusTxFault, "wal: "+walErr.Error())
		w.flushPending()
		return false
	}
	if walSeq == 0 {
		// Nothing mutated state (all NOT_FOUND / CAS_MISMATCH / refused
		// batches): no redo batch, no durability point to wait for.
		w.finishGroup(ops)
		return false
	}

	// Stash the group behind its appended redo batch: the worker loop
	// flushes the moment the shard would go idle, so a standing queue pays
	// one fdatasync per lag window instead of one per group, while a
	// synchronous client (empty queue between requests) still flushes
	// immediately. The lag bound caps the added commit latency; in adaptive
	// latency-first mode (group size 1) it collapses to flush-per-group.
	w.pending = append(w.pending, pendingGroup{ops: ops, seq: walSeq, doubt: doubt})
	if len(w.pending) >= w.sh.ctl.lagBound() {
		w.flushPending()
	}
	return true
}

// abortGroup fails a group whose transaction did not commit: the reservation
// goes back and every member is answered with the one status.
func (w *groupWorker) abortGroup(ops []groupOp, status wire.Status, detail string) {
	w.sh.settle(&w.fx[0], false)
	w.failGroup(ops, status, detail)
}

// failGroup answers every member of a group with one failure status.
func (w *groupWorker) failGroup(ops []groupOp, status wire.Status, detail string) {
	for i := range ops {
		ops[i].resp.Status = status
		ops[i].resp.SetDetail(detail)
	}
	w.finishGroup(ops)
}

// finishGroup answers every op of one group. Consecutive responses for the
// same connection are chained and handed to its writer in one channel send —
// a pipelined burst from one client costs one hand-off per group instead of
// one per request. The sends complete before any pending.Done so a graceful
// drain can never close an out channel with a chain still in flight.
func (w *groupWorker) finishGroup(ops []groupOp) {
	for i := 0; i < len(ops); {
		c := ops[i].t.c
		head, tail := ops[i].resp, ops[i].resp
		j := i + 1
		for ; j < len(ops) && ops[j].t.c == c; j++ {
			tail.Next = ops[j].resp
			tail = ops[j].resp
		}
		c.send(head)
		for ; i < j; i++ {
			c.pending.Done()
			w.s.reqWG.Done()
			ops[i].t.req.Release()
		}
	}
}
