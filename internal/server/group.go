// Group-commit execution. A shard worker drains up to the controller's
// group bound of queued requests per wakeup and runs them through one of
// exactly two executors:
//
//   - the group (runGroup): ONE view transaction on the worker's own shard —
//     one RAC admission, one begin/validate/commit (at Q == 1 a single lock
//     acquisition), one WAL append and one lagged flush amortized over K
//     members. Members are GET/PUT/DELETE/CAS requests and ATOMIC batches
//     whose keys all live on this shard; an ATOMIC member is interpreted by
//     multiBatch (store.go) with its own validate-before-first-write pass and
//     its own verdict.
//   - the round (runRound): every ATOMIC batch of the drain whose keys span
//     sub-shards, executed back to back inside one quiesce of their union
//     participant set (votm.AtomicAll) with one two-phase WAL flush.
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
	"sort"
	"sync"
	"time"

	"votm"
	"votm/ds"
	"votm/enc"
	"votm/internal/wal"
	"votm/wire"
)

// groupOp is one member's slot in a grouped transaction.
type groupOp struct {
	t    task
	resp *wire.Response

	// skip excludes an op whose pre-allocation failed; its resp already
	// carries the failure status and the transaction never sees it.
	skip bool

	// batch is the interpreter state of an ATOMIC member (nil for point
	// ops); it owns that member's pre-allocations.
	batch *multiBatch

	// block/node are pre-allocated outside the transaction for PUT and CAS
	// (alloc-outside / link-inside / free-after-commit discipline);
	// usedBlock/usedNode record whether the committed attempt linked them.
	block               votm.Addr
	hasBlock            bool
	node                ds.Ref
	hasNode             bool
	usedBlock, usedNode bool
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
}

// roundPair is one (task, participant) share of a round's redo records:
// recs[lo:hi] of the worker's record scratch.
type roundPair struct {
	task, part int
	lo, hi     int
}

// groupWorker is one shard worker's retained execution state: the op
// slots, the commit-side free lists and the amortized request context are
// all reused across groups, so the steady-state execution path allocates
// nothing.
type groupWorker struct {
	s  *Server
	sh *shard
	th *votm.Thread

	ops   []groupOp
	round []roundTask // cross-shard ATOMICs of the current drain, run as one round
	// self/selfTx are the group's one-participant view of the interpreter's
	// (participants, handles) pair: this shard and the group transaction.
	self   []*shard
	selfTx []votm.Tx
	// batchFree recycles ATOMIC interpreter state (and its scratch slices).
	batchFree []*multiBatch
	// frees collects every post-commit release of the current group's point
	// ops — displaced value blocks, unlinked map nodes, unused
	// pre-allocations — retired with one FreeBatch (one allocator lock) per
	// group.
	frees     []votm.Addr
	sizes     []int       // pre-allocation size scratch (blocks and nodes)
	blocks    []votm.Addr // pre-allocation result scratch
	keysDelta int64
	recs      []wal.Record // redo-record scratch (durability on)
	valBuf    []byte       // SubAdd post-image scratch backing recs
	prepBuf   []byte       // prepare-record payload scratch (cross-shard 2PC)
	pairs     []roundPair  // round redo-record index (cross-shard 2PC)

	// pending holds appended-but-unflushed groups (group-commit across
	// groups: one fdatasync covers the whole list); opsFree recycles their
	// op slices so lagging allocates nothing in steady state.
	pending []pendingGroup
	opsFree [][]groupOp

	// repScratch recycles waitReplicated's follower snapshot (cluster mode).
	repScratch []*replica

	// reqCtx is the group-execution context. Creating context.WithTimeout
	// per request would put two allocations and a timer on the hot path, so
	// one context is reused until half its budget has elapsed: every group
	// observes a deadline between RequestTimeout/2 and RequestTimeout away.
	reqCtx    context.Context
	reqCancel context.CancelFunc
	renewAt   time.Time
}

func newGroupWorker(s *Server, sh *shard, th *votm.Thread) *groupWorker {
	return &groupWorker{s: s, sh: sh, th: th, self: []*shard{sh}, selfTx: make([]votm.Tx, 1)}
}

func (w *groupWorker) close() {
	w.flushPending()
	if w.reqCancel != nil {
		w.reqCancel()
	}
}

// ctx returns the amortized request context (see reqCtx).
func (w *groupWorker) ctx() context.Context {
	now := time.Now()
	if w.reqCtx == nil || now.After(w.renewAt) || w.reqCtx.Err() != nil {
		if w.reqCancel != nil {
			w.reqCancel()
		}
		timeout := w.s.cfg.RequestTimeout
		w.reqCtx, w.reqCancel = context.WithTimeout(context.Background(), timeout)
		w.renewAt = now.Add(timeout / 2)
	}
	return w.reqCtx
}

// run executes one drained batch: route-rechecked point ops and same-shard
// ATOMIC batches execute as a single grouped transaction, cross-shard ATOMIC
// batches together as one coordination round. Every task is answered exactly
// once.
func (w *groupWorker) run(batch []task) {
	for _, t := range batch {
		if t.req.Op == wire.OpReplicate || t.req.Op == wire.OpHandoff {
			// Cluster stream ops carry WAL sequences, not keys: they bypass
			// the route recheck. Lagged groups settle first so AppendFrames
			// and installs never interleave with an unflushed append.
			w.flushPending()
			if t.req.Op == wire.OpReplicate {
				w.runReplicate(t)
			} else {
				w.runHandoff(t)
			}
			continue
		}
		// A split between dispatch and execution may have moved an ATOMIC's
		// or SCAN's coordinator: answer BUSY (retryable).
		if resp := w.s.recheckRoute(w.sh, t.req); resp != nil {
			w.finish(t, resp)
			continue
		}
		switch t.req.Op {
		case wire.OpScan:
			// A SCAN page pauses every view; settle lagged flushes first so
			// the writes it reveals never outrun their durability answers.
			w.flushPending()
			w.runScan(t)
		case wire.OpAtomic:
			b := w.acquireBatch(t.req.Subs)
			if len(b.parts) == 1 && b.parts[0] == w.sh {
				w.ops = append(w.ops, groupOp{t: t, batch: b})
				continue
			}
			// A batch spanning sub-shards — or whose plan resolved to a
			// single FOREIGN participant after a routing move — takes the
			// multi-view coordinator. Queue it: every such batch drained
			// this wakeup shares one quiesce and one two-phase flush.
			w.round = append(w.round, roundTask{t: t, batch: b})
		default:
			w.ops = append(w.ops, groupOp{t: t})
		}
	}
	if len(w.round) > 0 {
		w.flushPending()
		w.runRound(w.round)
		for i := range w.round {
			w.round[i] = roundTask{}
		}
		w.round = w.round[:0]
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
// batch's subs, with its routing plan resolved.
func (w *groupWorker) acquireBatch(subs []wire.Sub) *multiBatch {
	var b *multiBatch
	if n := len(w.batchFree); n > 0 {
		b, w.batchFree = w.batchFree[n-1], w.batchFree[:n-1]
	} else {
		b = new(multiBatch)
	}
	b.subs = subs
	w.s.atomicPlan(b)
	return b
}

// releaseBatch recycles a settled batch, dropping every reference it holds
// to its request and (through results) its response.
func (w *groupWorker) releaseBatch(b *multiBatch) {
	clear(b.parts)
	*b = multiBatch{parts: b.parts, owner: b.owner, res: b.res, effLen: b.effLen, frees: b.frees, keysDelta: b.keysDelta}
	w.batchFree = append(w.batchFree, b)
}

// recycleOps drops an answered group's request/response references so the
// pools can recycle freely, and returns the emptied slice for reuse.
func (w *groupWorker) recycleOps(ops []groupOp) []groupOp {
	for i := range ops {
		if b := ops[i].batch; b != nil {
			w.releaseBatch(b)
		}
		ops[i] = groupOp{}
	}
	return ops[:0]
}

// flushPending settles every lagged group with one shared flush: a single
// wal.Log.Sync at the newest pending sequence (usually one fdatasync, often
// zero when another worker's flush already covered it), then answers the
// groups oldest-first. A flush failure is a WAL fault for all of them: the
// memory commits happened, durability is unknown, every member answers
// TxFault and the shard goes read-only.
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
func (w *groupWorker) finish(t task, resp *wire.Response) {
	t.c.send(resp)
	t.c.pending.Done()
	w.s.reqWG.Done()
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

// appendWAL appends one redo batch to sh's log and meters it.
func appendWAL(sh *shard, recs []wal.Record) (uint64, error) {
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

// roundTask is one cross-shard ATOMIC's slot in a coordination round: its
// queued task, its interpreter state (ownership remapped onto the round's
// union participant indices) and the union participants it mutates.
type roundTask struct {
	t        task
	resp     *wire.Response
	batch    *multiBatch
	writes   []bool
	hasWrite bool
}

// runRound executes every cross-shard ATOMIC drained in one wakeup — one or
// many — as ONE coordination round: the union of their participant views is
// quiesced once in canonical order (votm.AtomicAll), the batches run back to
// back inside it with exclusive lock-mode access and per-batch verdicts, and
// durability is a single two-phase flush — every task's prepare records
// appended and fsynced together, then every commit record — so recovery
// (resolveCrossShard) applies each batch on all its participants or none,
// no matter where a crash lands. Cross-shard 2PC thus pays its quiesce and
// its fsyncs per ROUND instead of per batch (BenchmarkServerDurable's xshard
// cell).
//
// Correctness notes:
//
//   - A batch's failure (stale route, bad add, panic) lands in its own
//     verdict and never touches its round-mates: validation precedes every
//     write, so a failed batch wrote nothing. A round-level failure (pause
//     error, cancellation, a panic before the body) means nothing executed
//     and becomes every undecided batch's verdict.
//   - Every writing task gets its OWN xid and prepare/commit pair. Uniform
//     2PC keeps replay order right: each participant's log holds the round as
//     [P_t1..P_tk, C_t1..C_tk] in task order, a prepare's effects apply at
//     its commit record's position (durability.go replay), so replayed
//     effects land in task order — exactly the order the batches executed in
//     memory. Tasks stay independent at recovery: each xid is resolved by the
//     any-commit rule on its own. The one exception is a round whose records
//     all belong to one task on one participant (appendCrossShardRound).
//   - Every writable participant's walMu is taken in canonical order BEFORE
//     any view is paused and held until after the LAST commit record is
//     appended: each shard's log order equals its memory commit order, any
//     transaction observing a round task's writes logs after that task's
//     commit record (an observer becoming durable implies the decision is
//     durable), and — because group writers hold their one walMu before
//     entering the view — a paused view can never contain a transaction that
//     waits on a mutex held here.
//   - A WAL failure anywhere in the round abandons the WHOLE round's
//     durability (abort records where possible, writable participants flip
//     read-only, writing tasks answer TxFault) — round-mates share the
//     fault exactly as the members of a group share theirs.
func (w *groupWorker) runRound(tasks []roundTask) {
	s := w.s

	// Union of participants in canonical order: AtomicAll's acquisition
	// order and the walMu lock order below must both match what every other
	// acquirer uses.
	var union []*shard
	uindex := make(map[*shard]int)
	for i := range tasks {
		for _, p := range tasks[i].batch.parts {
			if _, seen := uindex[p]; !seen {
				uindex[p] = 0
				union = append(union, p)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return shardLess(union[i], union[j]) })
	for i, p := range union {
		uindex[p] = i
	}

	// Per-task setup: response, union-indexed ownership, write set, and the
	// read-only refusal (a task writing a faulted shard drops out up front;
	// its round-mates still run).
	durable := union[0].log != nil
	unionWrite := make([]bool, len(union))
	hasWrite := false
	live := tasks[:0]
	for _, rt := range tasks {
		b := rt.batch
		rt.resp = wire.NewResponse()
		rt.resp.Op, rt.resp.ID = rt.t.req.Op, rt.t.req.ID
		rt.writes = make([]bool, len(union))
		refused := false
		for si, sub := range b.subs {
			ui := uindex[b.parts[b.owner[si]]]
			b.owner[si] = ui
			if sub.Kind != wire.SubGet {
				rt.writes[ui], rt.hasWrite = true, true
				refused = refused || (durable && union[ui].readOnly.Load())
			}
		}
		if refused {
			rt.resp.Status = wire.StatusTxFault
			rt.resp.SetDetail(errShardReadOnly)
			w.releaseBatch(b)
			w.finish(rt.t, rt.resp)
			continue
		}
		if rt.hasWrite {
			hasWrite = true
			for pi, mutates := range rt.writes {
				unionWrite[pi] = unionWrite[pi] || mutates
			}
		}
		b.results = rt.resp.Subs[:0]
		_ = b.alloc(union) // a failure is the batch's verdict
		live = append(live, rt)
	}
	if tasks = live; len(tasks) == 0 {
		return
	}
	durable = durable && hasWrite
	// undecided gives every batch without a verdict the round's.
	undecided := func(err error) {
		for i := range tasks {
			if tasks[i].batch.err == nil {
				tasks[i].batch.err = err
			}
		}
	}

	var (
		syncShs  []*shard // final records awaiting their fsync
		syncSeqs []uint64
		walErr   error
	)
	func() {
		locked := 0
		defer func() {
			for i := locked - 1; i >= 0; i-- {
				if unionWrite[i] {
					union[i].walMu.Unlock()
				}
			}
		}()
		defer func() {
			// The one place ATOMIC pre-allocations are released, on every
			// path: a panic that unwound AtomicAll (an injected admission
			// fault — nothing executed) first becomes the verdict of every
			// undecided batch, so their blocks and nodes are freed too.
			if r := recover(); r != nil {
				s.logf("votmd: shard %d: %v in cross-shard ATOMIC round", w.sh.id, r)
				undecided(txFault{r})
			}
			for i := range tasks {
				tasks[i].batch.settle(union, true)
			}
		}()
		if durable {
			for i, p := range union {
				if unionWrite[i] {
					p.walMu.Lock()
				}
				locked = i + 1
			}
			for i, p := range union {
				if unionWrite[i] && s.moving(p) {
					// A participant is quiesced for a handoff: refuse the
					// whole round before anything executes (BUSY).
					undecided(errShardMoving)
					return
				}
			}
		}
		views := make([]*votm.View, len(union))
		for i, p := range union {
			views[i] = p.view
		}
		err := votm.AtomicAll(w.ctx(), w.th, views, !hasWrite, func(txs []votm.Tx) error {
			for i := range tasks {
				if b := tasks[i].batch; b.err == nil {
					b.err = execContained(b, s, union, txs)
				}
			}
			return nil
		})
		if err != nil {
			undecided(err)
		}
		if durable {
			syncShs, syncSeqs, walErr = w.appendCrossShardRound(union, tasks)
		}
	}()
	// Final fsyncs outside the mutexes (overlapping later groups,
	// piggybacking across workers); every writing task's response still
	// waits on every participant's durability point — and, under cluster
	// leadership, every participant's semi-sync replication point.
	if walErr == nil {
		walErr = w.syncAll(syncShs, syncSeqs)
		if walErr == nil {
			for i := range syncShs {
				w.repScratch = s.waitReplicated(syncShs[i], syncSeqs[i], w.repScratch)
			}
		}
	}
	for i := range tasks {
		rt := &tasks[i]
		resp := rt.resp
		switch {
		case rt.batch.err != nil:
			status, detail := errStatus(rt.batch.err)
			resp.Status = status
			resp.SetDetail(detail)
		case walErr != nil && rt.hasWrite:
			// A read-only task's result needs no durability point; a writing
			// one cannot distinguish its own records from the round's fault.
			resp.Status = wire.StatusTxFault
			resp.SetDetail("wal: " + walErr.Error())
		default:
			resp.Subs = rt.batch.results
			if len(rt.batch.parts) > 1 {
				for _, p := range rt.batch.parts {
					p.xsGroups.Add(1)
				}
			}
		}
		w.releaseBatch(rt.batch)
		w.finish(rt.t, resp)
	}
}

// execContained runs one round batch, containing a panic to that batch: its
// round-mates already executed (or still can) inside the same irrevocable
// quiesce, so the fault must not unwind them. (The forwarding guard cannot
// fire here — routing is frozen and exec checked every key — so any panic
// is a batch-local fault.)
func execContained(b *multiBatch, s *Server, parts []*shard, txs []votm.Tx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = txFault{r}
		}
	}()
	return b.exec(s, parts, txs)
}

// appendCrossShardRound makes a round's committed batches durable with one
// two-phase flush. Per writable participant it appends ONE record batch
// holding every task's prepare (task order), fsyncs all participants once —
// the phase-1 barrier — then appends each participant's commit records,
// still under the walMus so the round stays contiguous in every log. Each
// task has its own xid: recovery resolves every task independently by the
// any-commit rule, and a prepare's effects apply at its commit record's
// position, keeping replay in task order.
//
// A round whose redo records all belong to ONE task on ONE participant
// degenerates to a plain batch append: no other log has to agree with it and
// nothing else in the round needs ordering against it.
//
// Returns the shards and sequences whose final records await their fsync.
// On error the round's durability is abandoned wholesale: abort records are
// appended where possible and every participant holding round records flips
// read-only.
func (w *groupWorker) appendCrossShardRound(union []*shard, tasks []roundTask) ([]*shard, []uint64, error) {
	w.recs, w.valBuf, w.pairs = w.recs[:0], w.valBuf[:0], w.pairs[:0]
	for ti := range tasks {
		rt := &tasks[ti]
		if rt.batch.err != nil || !rt.hasWrite {
			continue
		}
		for pi := range union {
			if !rt.writes[pi] {
				continue
			}
			lo := len(w.recs)
			w.recs, w.valBuf = appendAtomicRecords(w.recs, w.valBuf, rt.batch, pi)
			if len(w.recs) > lo { // else e.g. only missed deletes landed here
				w.pairs = append(w.pairs, roundPair{task: ti, part: pi, lo: lo, hi: len(w.recs)})
			}
		}
	}
	switch len(w.pairs) {
	case 0:
		return nil, nil, nil // no task mutated state anywhere
	case 1:
		p := union[w.pairs[0].part]
		seq, err := appendWAL(p, w.recs)
		if err != nil {
			w.s.noteShardWALFault(p, err)
			return nil, nil, err
		}
		return []*shard{p}, []uint64{seq}, nil
	}

	prep := make([][]wal.Record, len(union))
	commit := make([][]wal.Record, len(union))
	w.prepBuf = w.prepBuf[:0]
	var xid uint64
	for i, pr := range w.pairs {
		if i == 0 || pr.task != w.pairs[i-1].task {
			xid = w.s.nextXID()
		}
		// A grown prepBuf leaves earlier values intact in the old array.
		lo := len(w.prepBuf)
		w.prepBuf = wal.AppendPrepareValue(w.prepBuf, w.recs[pr.lo:pr.hi])
		prep[pr.part] = append(prep[pr.part], wal.Record{Kind: wal.RecPrepare, Key: xid, Value: w.prepBuf[lo:len(w.prepBuf):len(w.prepBuf)]})
		commit[pr.part] = append(commit[pr.part], wal.Record{Kind: wal.RecCommit, Key: xid})
	}

	var (
		prepShs  []*shard
		prepSeqs []uint64
		prepIdx  []int // union index per prepShs entry
	)
	abortRound := func(err error) {
		// Memory holds every task's effects but the logs will not replay
		// them: append the abort decisions where possible (so the next
		// recovery resolves instantly instead of hunting for commit records)
		// and flip every participant holding round records read-only.
		for _, pi := range prepIdx {
			p := union[pi]
			aborts := make([]wal.Record, 0, len(prep[pi]))
			for _, r := range prep[pi] {
				aborts = append(aborts, wal.Record{Kind: wal.RecAbort, Key: r.Key})
			}
			_, _, _ = p.log.Append(aborts)
			p.xsPrepareAborts.Add(uint64(len(aborts)))
		}
		for pi := range union {
			if len(prep[pi]) > 0 {
				w.s.noteShardWALFault(union[pi], err)
			}
		}
	}
	for pi, p := range union {
		if len(prep[pi]) == 0 {
			continue
		}
		seq, err := appendWAL(p, prep[pi])
		if err != nil {
			abortRound(err)
			return nil, nil, err
		}
		p.xsPrepares.Add(uint64(len(prep[pi])))
		prepShs, prepSeqs, prepIdx = append(prepShs, p), append(prepSeqs, seq), append(prepIdx, pi)
	}
	// Phase-1 barrier: every prepare durable before any commit record can
	// exist. (The walMus stay held; Sync never takes them.)
	if err := w.syncAll(prepShs, prepSeqs); err != nil {
		abortRound(err)
		return nil, nil, err
	}
	// Phase 2: the decisions, in task order per participant. A task's group
	// is committed the moment the first of its commit records becomes
	// durable — sound because phase 1 made every participant's prepare
	// outlive it.
	commitSeqs := make([]uint64, len(prepShs))
	var firstErr error
	for i, pi := range prepIdx {
		seq, err := appendWAL(union[pi], commit[pi])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		commitSeqs[i] = seq
	}
	if firstErr != nil {
		// Some logs hold commit records and some cannot: whether each task
		// survives a restart is decided by the any-commit rule, not by what
		// these shards' memory says — flip them all.
		for _, pi := range prepIdx {
			w.s.noteShardWALFault(union[pi], firstErr)
		}
		return nil, nil, firstErr
	}
	return prepShs, commitSeqs, nil
}

// syncAll flushes one appended sequence per shard, concurrently (each Sync
// piggybacks with that shard's other committers). A failed flush flips only
// the failing shard read-only — a sibling whose flush succeeded has its
// records durable and stays consistent — and the first error is returned.
func (w *groupWorker) syncAll(shs []*shard, seqs []uint64) error {
	errs := make([]error, len(shs))
	if len(shs) == 1 {
		errs[0] = shs[0].log.Sync(seqs[0])
	} else {
		var wg sync.WaitGroup
		for i := range shs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = shs[i].log.Sync(seqs[i])
			}(i)
		}
		wg.Wait()
	}
	var first error
	for i, err := range errs {
		if err != nil {
			w.s.noteShardWALFault(shs[i], err)
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// runGroup executes w.ops as one grouped transaction. It returns true when
// the committed group was stashed on the pending list (ownership of w.ops
// moves to the flush) and false when every member was answered inline.
func (w *groupWorker) runGroup() bool {
	sh, ops := w.sh, w.ops
	readonly := true

	// Response slots and pre-allocation, outside the transaction. Blocks
	// and spare nodes for the group's point ops are carved out in one
	// allocator lock acquisition; if the batch cannot be satisfied
	// (allocator pressure), fall back to per-op allocation so that only the
	// op that actually fails is answered INTERNAL and skipped. An ATOMIC
	// member allocates through its interpreter.
	w.sizes = w.sizes[:0]
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
			// Node words are key-dependent: the skip list's tower height is a
			// deterministic function of the key.
			w.sizes = append(w.sizes, enc.BlobWords(len(req.Value)), sh.idx.NodeWords(req.Key))
		case wire.OpAtomic:
			readonly = readonly && !op.batch.writes()
			op.batch.results = resp.Subs[:0]
			if err := op.batch.alloc(w.self); err != nil {
				w.skipOp(op, err)
			}
		default:
			readonly = false
		}
	}
	var batched bool
	if len(w.sizes) > 0 {
		var err error
		if w.blocks, err = sh.allocBatch(w.sizes, w.blocks[:0]); err == nil {
			batched = true
			next := 0
			for i := range ops {
				op := &ops[i]
				if o := op.t.req.Op; o == wire.OpPut || o == wire.OpCAS {
					op.block, op.hasBlock = w.blocks[next], true
					op.node, op.hasNode = ds.Ref(w.blocks[next+1]), true
					next += 2
				}
			}
		}
	}
	live := 0
	for i := range ops {
		op := &ops[i]
		req := op.t.req
		if !batched && (req.Op == wire.OpPut || req.Op == wire.OpCAS) {
			block, err := sh.alloc(enc.BlobWords(len(req.Value)))
			if err == nil {
				op.block, op.hasBlock = block, true
				var node ds.Ref
				if node, err = sh.idx.NewNode(req.Key); err == nil {
					op.node, op.hasNode = node, true
				}
			}
			if err != nil {
				w.skipOp(op, err)
			}
		}
		if !op.skip {
			live++
		}
	}
	if live == 0 {
		w.finishGroup(ops)
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
		w.failGroup(ops, wire.StatusTxFault, errShardReadOnly)
		return false
	}

	// The runtime rolls back and releases admission before a body panic
	// (an injected fault) reaches us: fail just this group, but answer
	// every member — no request may be lost to a chaos event — and release
	// every member's pre-allocations.
	defer func() {
		if r := recover(); r != nil {
			w.s.logf("votmd: shard %d: %v in grouped transaction of %d", sh.id, r, live)
			w.failGroup(ops, wire.StatusTxFault, fmt.Sprint(r))
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
			// the captured state — refuse every live op instead (BUSY).
			w.failGroup(ops, wire.StatusBusy, errShardMoving.Error())
			return false
		}
	}

	// The body may be re-executed after a conflict: every per-op outcome
	// and commit-side effect list is rebuilt from scratch on each attempt.
	// No path returns a non-nil error after a write, so the group is safe
	// under Q == 1 lock-mode execution (which has no rollback): per-op
	// failures are statuses, never aborts.
	fn := func(tx votm.Tx) error {
		w.frees, w.keysDelta = w.frees[:0], 0
		w.selfTx[0] = tx
		for i := range ops {
			op := &ops[i]
			if op.skip {
				continue
			}
			if b := op.batch; b != nil {
				// The member keeps its own verdict: a refused batch wrote
				// nothing (exec validates before its first write) and its
				// group-mates carry on.
				b.err = b.exec(w.s, w.self, w.selfTx)
				continue
			}
			op.usedBlock, op.usedNode = false, false
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
			switch req.Op {
			case wire.OpGet:
				if ref, ok := sh.idx.Get(tx, req.Key); ok {
					resp.Value = enc.AppendBlob(resp.Value, tx, votm.Addr(ref))
				} else {
					resp.Status = wire.StatusNotFound
				}
			case wire.OpPut:
				enc.StoreBlob(tx, op.block, req.Value)
				prev, existed, used := sh.idx.Swap(tx, req.Key, uint64(op.block), op.node)
				op.usedBlock, op.usedNode = true, used
				if existed {
					w.frees = append(w.frees, votm.Addr(prev))
				} else {
					w.keysDelta++
				}
				resp.Created = !existed
			case wire.OpDelete:
				if ref, ok := sh.idx.Get(tx, req.Key); ok {
					node, _ := sh.idx.Delete(tx, req.Key)
					w.frees = append(w.frees, votm.Addr(ref), votm.Addr(node))
					w.keysDelta--
				} else {
					resp.Status = wire.StatusNotFound
				}
			case wire.OpCAS:
				ref, ok := sh.idx.Get(tx, req.Key)
				if !ok {
					resp.Status = wire.StatusNotFound
					break
				}
				base := votm.Addr(ref)
				if !enc.BlobEqual(tx, base, req.OldValue) {
					resp.Status = wire.StatusCASMismatch
					resp.Value = enc.AppendBlob(resp.Value, tx, base)
					break
				}
				enc.StoreBlob(tx, op.block, req.Value)
				prev, _, used := sh.idx.Swap(tx, req.Key, uint64(op.block), op.node)
				op.usedBlock, op.usedNode = true, used
				w.frees = append(w.frees, votm.Addr(prev))
			}
		}
		return nil
	}

	var err error
	if readonly {
		err = sh.view.AtomicReadGroup(w.ctx(), w.th, live, fn)
	} else {
		err = sh.view.AtomicGroup(w.ctx(), w.th, live, fn)
	}
	if err != nil {
		status, detail := errStatus(err)
		w.failGroup(ops, status, detail)
		return false
	}

	// Committed. A durable group's redo batch — the post-images of every
	// member that mutated state — is appended before walMu drops (so a later
	// group's batch can never overtake it in the log); the flush happens
	// after, at most once per group and shared whenever possible.
	var (
		walSeq uint64
		walErr error
	)
	if durable {
		w.recs, w.valBuf = appendGroupRecords(w.recs[:0], w.valBuf[:0], ops)
		if len(w.recs) > 0 {
			walSeq, walErr = appendWAL(sh, w.recs)
		}
		sh.walMu.Unlock()
		walLocked = false
	}

	// Release displaced storage and any pre-allocation the final attempt
	// did not link — the point ops' whole effect list in one allocator lock
	// acquisition (a map node is a plain view block: FreeNode is view.Free
	// by another name, so it batches with the rest), each ATOMIC member's
	// through its interpreter, which also yields the member's answer. This
	// cleanup is due even when the WAL failed: the memory commit happened.
	for i := range ops {
		op := &ops[i]
		if b := op.batch; b != nil {
			if b.err != nil {
				status, detail := errStatus(b.err)
				op.resp.Status = status
				op.resp.SetDetail(detail)
			} else {
				op.resp.Subs = b.results
			}
			b.settle(w.self, true)
			continue
		}
		if op.hasBlock && !op.usedBlock {
			w.frees = append(w.frees, op.block)
		}
		if op.hasNode && !op.usedNode {
			w.frees = append(w.frees, votm.Addr(op.node))
		}
		op.hasBlock, op.hasNode = false, false
	}
	_ = sh.view.FreeBatch(w.frees)
	sh.keys.Add(w.keysDelta)

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
	w.pending = append(w.pending, pendingGroup{ops: ops, seq: walSeq})
	if len(w.pending) >= w.sh.ctl.lagBound() {
		w.flushPending()
	}
	return true
}

// skipOp excludes a member whose pre-allocation failed from the group: it
// is answered INTERNAL and the transaction never sees it.
func (w *groupWorker) skipOp(op *groupOp, err error) {
	w.releaseOp(op)
	op.resp.Status = wire.StatusInternal
	op.resp.SetDetail(err.Error())
	op.skip = true
}

// releaseOp returns a member's unlinked pre-allocations (failure paths; a
// no-op once the member's storage has been settled).
func (w *groupWorker) releaseOp(op *groupOp) {
	if op.batch != nil {
		op.batch.settle(w.self, false)
	}
	if op.hasBlock {
		_ = w.sh.view.Free(op.block)
		op.hasBlock = false
	}
	if op.hasNode {
		_ = w.sh.idx.FreeNode(op.node)
		op.hasNode = false
	}
}

// failGroup answers every live member of a group with one failure status,
// releasing whatever pre-allocations they still hold.
func (w *groupWorker) failGroup(ops []groupOp, status wire.Status, detail string) {
	for i := range ops {
		op := &ops[i]
		if op.skip {
			continue
		}
		w.releaseOp(op)
		op.resp.Status = status
		op.resp.SetDetail(detail)
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
