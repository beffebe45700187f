// Cross-shard ATOMIC execution: one round coordinator per server.
//
// A shard worker that plans an ATOMIC batch as cross-shard does not execute
// it: it hands the task (request + routing plan) to the server's one bounded
// round queue and goes straight on to its group. A single coordinator
// goroutine takes EVERYTHING queued and runs it as one round: one
// canonical-order walMu acquisition, one quiesce of the union participant
// set (votm.AtomicAll), the batches back to back inside it, and one
// two-phase WAL flush — every task's prepare records appended and fsynced
// together, then every commit record.
//
// Rounds exclude each other anyway — any two share participants, and a
// durable round holds its participants' walMus across the phase-1 flush — so
// the coordinator makes that Q = 1 explicit and turns the wait for the
// running round into the time that fills the next one: under load a round
// carries every cross-shard ATOMIC that arrived during its predecessor's two
// flushes, whichever shard coordinates it. A round is a window of the
// window-based contention managers (Sharma, Estrade, Busch; PAPERS.md): the
// tasks of one window are made independent — a task that reads state an
// earlier member wrote waits for the next window — so each commits or aborts
// at recovery without reference to its round-mates.
package server

import (
	"slices"
	"sync"
	"sync/atomic"

	"votm"
	"votm/internal/wal"
	"votm/wire"
)

// roundBodyBudget bounds the redo bytes the coordinator admits into one
// round. In the worst case every byte lands in ONE participant's prepare
// batch, and wal.Log.Append refuses a batch above wal.MaxBatchBody — a
// refusal that would flip the participant read-only. The budget is checked
// before each dequeue, so a round overshoots by at most the deferred tasks it
// inherited plus one task (a request frame is bounded by wire.MaxFrame).
const roundBodyBudget = wal.MaxBatchBody / 2

// subRedoOverhead over-approximates the WAL framing one writing sub adds to
// a prepare batch beyond its value bytes: the nested record header, an ADD's
// 8-byte post-image and, for a participant's first sub, the prepare record
// wrapping it.
const subRedoOverhead = 40

// roundTask is one cross-shard ATOMIC's slot in a round: its queued task and
// its interpreter state (ownership remapped onto the round's union
// participant indices once the round starts).
type roundTask struct {
	t        task
	batch    *multiBatch
	resp     *wire.Response
	hasWrite bool
}

// roundPair is one (task, participant) share of a round's redo records:
// recs[lo:hi] of the coordinator's record scratch.
type roundPair struct {
	task, part int
	lo, hi     int
}

// RoundStats counts the coordination rounds a server has run.
type RoundStats struct {
	Rounds  uint64 // rounds executed
	Tasks   uint64 // cross-shard ATOMIC batches they carried
	Largest uint64 // most batches in one round
	// Mixed counts rounds that combined batches dispatched to different
	// coordinating shards — what a per-worker round could never do.
	Mixed uint64
}

// MeanTasks is the mean number of batches per round (0 before any round).
func (r RoundStats) MeanTasks() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return float64(r.Tasks) / float64(r.Rounds)
}

// RoundStats returns the server's round counters. In-process only: the wire
// STATS frame is per shard and a round belongs to none.
func (s *Server) RoundStats() RoundStats {
	rc := s.rounds
	return RoundStats{
		Rounds:  rc.nRounds.Load(),
		Tasks:   rc.nTasks.Load(),
		Largest: rc.largest.Load(),
		Mixed:   rc.nMixed.Load(),
	}
}

// roundCoordinator owns the server's round queue and every piece of round
// scratch: all of it is reused across rounds, so a round's allocations do not
// grow with its task count and a task adds none in steady state.
type roundCoordinator struct {
	s  *Server
	th *votm.Thread
	reqContext
	// durable: every shard has a WAL (Durability group), so a writing round
	// logs and the per-task recovery rule of admit applies.
	durable bool

	// queue is the server's one hand-off point from the shard workers. Its
	// capacity is Config.QueueDepth — the bound a shard's own queue has — and
	// a hand-off that finds it full answers BUSY.
	queue chan roundTask
	done  chan struct{}

	nRounds, nTasks, largest, nMixed atomic.Uint64

	tasks []roundTask // the round being built or run
	// carry holds dequeued tasks deferred to the next round because they read
	// state an admitted task writes; written is that round's written key set
	// and bytes its redo volume (see roundBodyBudget).
	carry   []roundTask
	written map[uint64]struct{}
	bytes   int

	uindex     map[*shard]int // participant -> union index
	union      []*shard
	views      []*votm.View
	unionWrite []bool // per union participant: some task mutates it
	writes     []bool // task-major matrix: writes[ti*len(union)+pi]

	recs         []wal.Record // redo-record scratch
	valBuf       []byte       // SubAdd post-image scratch backing recs
	prepBuf      []byte       // prepare-record payload scratch
	pairs        []roundPair
	prep, commit [][]wal.Record // per union participant, task order
	aborts       []wal.Record
	// syncShs/syncSeqs name the appended sequences awaiting a flush: the
	// prepares during phase 1, the final records after.
	syncShs  []*shard
	syncSeqs []uint64
	syncErrs []error

	repScratch []*replica // waitReplicated's follower snapshot (cluster mode)
}

func newRoundCoordinator(s *Server) *roundCoordinator {
	return &roundCoordinator{
		s:          s,
		th:         s.rt.RegisterThread(),
		reqContext: reqContext{timeout: s.cfg.RequestTimeout},
		durable:    s.cfg.Durability == DurabilityGroup,
		queue:      make(chan roundTask, s.cfg.QueueDepth),
		done:       make(chan struct{}),
		written:    make(map[uint64]struct{}),
		uindex:     make(map[*shard]int),
	}
}

// submit hands a planned cross-shard batch to the coordinator. False means
// the round queue is full: nothing executed, and the caller answers BUSY.
func (rc *roundCoordinator) submit(t task, b *multiBatch) bool {
	select {
	case rc.queue <- roundTask{t: t, batch: b}:
		return true
	default:
		return false
	}
}

// stop ends the coordinator once every queued task is answered. The shard
// workers — the queue's only senders — must have exited.
func (rc *roundCoordinator) stop() {
	close(rc.queue)
	<-rc.done
}

// loop is the coordinator goroutine: block for one task, take whatever else
// is queued, run the lot as one round.
func (rc *roundCoordinator) loop() {
	defer close(rc.done)
	defer rc.th.Release()
	defer rc.reqContext.close()
	for {
		if len(rc.carry) == 0 {
			rt, ok := <-rc.queue
			if !ok {
				return
			}
			rc.admit(rt)
		}
		rc.fill()
		rc.runRound()
	}
}

// fill builds the next round: the tasks the last round deferred first, in
// their arrival order, then everything queued until the queue is empty or
// the redo budget is spent.
func (rc *roundCoordinator) fill() {
	carried := rc.carry
	rc.carry = rc.carry[:0] // admit re-defers in place: it never outruns the read
	for _, rt := range carried {
		rc.admit(rt)
	}
	for rc.bytes < roundBodyBudget {
		select {
		case rt, ok := <-rc.queue:
			if !ok {
				return
			}
			rc.admit(rt)
		default:
			return
		}
	}
}

// admit places one dequeued task: into the round being built, onto the carry
// list when it depends on a round-mate, or — a durable write to a shard that
// lost its WAL — straight to a TxFault answer.
//
// The dependency rule keeps recovery per task. Every task has its own xid
// and is resolved by the any-commit rule on its own, so a crash between the
// round's commit appends can keep a later task and drop an earlier one. That
// is sound only if the later task's redo records do not embed the earlier
// one's effects: an ADD's post-image (and a DELETE's found/missed verdict) on
// a key a round-mate wrote would. Such a task waits one round; blind PUTs
// never do.
func (rc *roundCoordinator) admit(rt roundTask) {
	b, durable := rt.batch, rc.durable
	refused, dependent := false, false
	for i, sub := range b.subs {
		if sub.Kind != wire.SubGet {
			rt.hasWrite = true
			refused = refused || (durable && b.parts[b.owner[i]].readOnly.Load())
		}
		if durable && sub.Kind != wire.SubPut {
			_, hit := rc.written[sub.Key]
			dependent = dependent || hit
		}
	}
	switch {
	case refused:
		resp := wire.NewResponse()
		resp.Op, resp.ID = rt.t.req.Op, rt.t.req.ID
		resp.Status = wire.StatusTxFault
		resp.SetDetail(errShardReadOnly)
		rc.s.releaseBatch(b)
		rc.s.finish(rt.t, resp)
	case dependent:
		rc.carry = append(rc.carry, rt)
	default:
		if durable {
			for _, sub := range b.subs {
				if sub.Kind != wire.SubGet {
					rc.written[sub.Key] = struct{}{}
					rc.bytes += subRedoOverhead + len(sub.Value)
				}
			}
		}
		rc.tasks = append(rc.tasks, rt)
	}
}

// resized returns s with length n and every element zeroed, reallocating
// only when the capacity is short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// undecided gives every batch without a verdict the round's.
func (rc *roundCoordinator) undecided(err error) {
	for i := range rc.tasks {
		if b := rc.tasks[i].batch; b.err == nil {
			b.err = err
		}
	}
}

// runBatches is the round's body inside the quiesce: every batch that still
// has no verdict executes, in task order, against the union's handles.
func (rc *roundCoordinator) runBatches(txs []votm.Tx) error {
	for i := range rc.tasks {
		if b := rc.tasks[i].batch; b.err == nil {
			b.err = execContained(b, rc.s, rc.union, txs)
		}
	}
	return nil
}

// runRound executes rc.tasks — one or many cross-shard ATOMIC batches — as
// ONE coordination round: the union of their participant views is quiesced
// once in canonical order (votm.AtomicAll), the batches run back to back
// inside it with exclusive lock-mode access and per-batch verdicts, and
// durability is a single two-phase flush, so recovery (resolveCrossShard)
// applies each batch on all its participants or none, no matter where a
// crash lands. Cross-shard 2PC thus pays its quiesce and its fsyncs per
// ROUND instead of per batch.
//
// Correctness notes:
//
//   - A batch's failure (stale route, bad add, panic) lands in its own
//     verdict and never touches its round-mates: validation precedes every
//     write, so a failed batch wrote nothing. A round-level failure (pause
//     error, cancellation, a panic before the body) means nothing executed
//     and becomes every undecided batch's verdict.
//   - The plan a worker attached to a batch may be stale by now (a split
//     between hand-off and round): exec re-verifies every key's owner inside
//     the quiesce, before the batch's first write, and answers BUSY.
//   - Every writing task gets its OWN xid and prepare/commit pair. Uniform
//     2PC keeps replay order right: each participant's log holds the round as
//     [P_t1..P_tk, C_t1..C_tk] in task order, a prepare's effects apply at
//     its commit record's position (durability.go replay), so replayed
//     effects land in task order — exactly the order the batches executed in
//     memory. Tasks stay independent at recovery (see admit). The one
//     exception is a round whose records all belong to one task on one
//     participant (appendCrossShardRound).
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
func (rc *roundCoordinator) runRound() {
	s, tasks := rc.s, rc.tasks
	defer rc.reset()
	if len(tasks) == 0 {
		return // every dequeued task was refused or deferred
	}

	// Union of participants in canonical order: AtomicAll's acquisition
	// order and the walMu lock order below must both match what every other
	// multi-shard acquirer (a SCAN page) uses.
	union := rc.union[:0]
	mixed := false
	for i := range tasks {
		parts := tasks[i].batch.parts
		mixed = mixed || parts[0] != tasks[0].batch.parts[0]
		for _, p := range parts {
			if _, seen := rc.uindex[p]; !seen {
				rc.uindex[p] = 0
				union = append(union, p)
			}
		}
	}
	slices.SortFunc(union, shardCompare)
	for i, p := range union {
		rc.uindex[p] = i
	}
	rc.union = union
	nu := len(union)

	rc.nRounds.Add(1)
	rc.nTasks.Add(uint64(len(tasks)))
	maxInto(&rc.largest, uint64(len(tasks)))
	if mixed {
		rc.nMixed.Add(1)
	}

	// Per-task setup: response, union-indexed ownership, write set,
	// pre-allocation.
	rc.unionWrite = resized(rc.unionWrite, nu)
	rc.writes = resized(rc.writes, len(tasks)*nu)
	unionWrite, writes := rc.unionWrite, rc.writes
	hasWrite := false
	for ti := range tasks {
		rt := &tasks[ti]
		b := rt.batch
		rt.resp = wire.NewResponse()
		rt.resp.Op, rt.resp.ID = rt.t.req.Op, rt.t.req.ID
		for si, sub := range b.subs {
			ui := rc.uindex[b.parts[b.owner[si]]]
			b.owner[si] = ui
			if sub.Kind != wire.SubGet {
				writes[ti*nu+ui], unionWrite[ui] = true, true
			}
		}
		hasWrite = hasWrite || rt.hasWrite
		b.results = rt.resp.Subs[:0]
		_ = b.alloc(union) // a failure is the batch's verdict
	}
	durable := hasWrite && rc.durable

	var walErr error
	rc.syncShs, rc.syncSeqs = rc.syncShs[:0], rc.syncSeqs[:0]
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
				s.logf("votmd: %v in a cross-shard ATOMIC round of %d", r, len(tasks))
				rc.undecided(txFault{r})
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
			for pi, p := range union {
				if !unionWrite[pi] || !s.moving(p) {
					continue
				}
				// A participant is quiesced for a handoff: the tasks that
				// would commit behind its captured state are refused before
				// anything executes (BUSY); the rest of the round carries on.
				for ti := range tasks {
					if b := tasks[ti].batch; writes[ti*nu+pi] && b.err == nil {
						b.err = errShardMoving
					}
				}
			}
		}
		rc.views = resized(rc.views, nu)
		for i, p := range union {
			rc.views[i] = p.view
		}
		if err := votm.AtomicAll(rc.ctx(), rc.th, rc.views, !hasWrite, rc.runBatches); err != nil {
			rc.undecided(err)
		}
		if durable {
			walErr = rc.appendCrossShardRound()
		}
	}()
	// Final fsyncs outside the mutexes (overlapping the shards' groups,
	// piggybacking with their flushes); every writing task's response still
	// waits on every participant's durability point — and, under cluster
	// leadership, every participant's semi-sync replication point.
	if walErr == nil {
		if walErr = rc.syncAll(); walErr == nil {
			for i, p := range rc.syncShs {
				rc.repScratch = s.waitReplicated(p, rc.syncSeqs[i], rc.repScratch)
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
		s.releaseBatch(rt.batch)
		s.finish(rt.t, resp)
	}
}

// reset drops the finished round's references — requests, responses and
// interpreter state are back in their pools — and empties the per-round
// sets, keeping every backing array.
func (rc *roundCoordinator) reset() {
	clear(rc.tasks)
	rc.tasks = rc.tasks[:0]
	clear(rc.uindex)
	clear(rc.written)
	rc.bytes = 0
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

// appendCrossShardRound makes the round's committed batches durable with one
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
// It leaves the shards and sequences whose final records await their fsync
// in rc.syncShs/rc.syncSeqs. On error the round's durability is abandoned
// wholesale: abort records are appended where possible and every participant
// holding round records flips read-only.
func (rc *roundCoordinator) appendCrossShardRound() error {
	union, tasks, nu := rc.union, rc.tasks, len(rc.union)
	rc.recs, rc.valBuf, rc.pairs = rc.recs[:0], rc.valBuf[:0], rc.pairs[:0]
	for ti := range tasks {
		rt := &tasks[ti]
		if rt.batch.err != nil || !rt.hasWrite {
			continue
		}
		for pi := range union {
			if !rc.writes[ti*nu+pi] {
				continue
			}
			lo := len(rc.recs)
			rc.recs, rc.valBuf = appendAtomicRecords(rc.recs, rc.valBuf, rt.batch, pi)
			if len(rc.recs) > lo { // else e.g. only missed deletes landed here
				rc.pairs = append(rc.pairs, roundPair{task: ti, part: pi, lo: lo, hi: len(rc.recs)})
			}
		}
	}
	switch len(rc.pairs) {
	case 0:
		return nil // no task mutated state anywhere
	case 1:
		p := union[rc.pairs[0].part]
		seq, err := appendWAL(p, rc.recs)
		if err != nil {
			rc.s.noteShardWALFault(p, err)
			return err
		}
		rc.syncShs, rc.syncSeqs = append(rc.syncShs, p), append(rc.syncSeqs, seq)
		return nil
	}

	for len(rc.prep) < nu {
		rc.prep, rc.commit = append(rc.prep, nil), append(rc.commit, nil)
	}
	prep, commit := rc.prep[:nu], rc.commit[:nu]
	for pi := range prep {
		prep[pi], commit[pi] = prep[pi][:0], commit[pi][:0]
	}
	rc.prepBuf = rc.prepBuf[:0]
	var xid uint64
	for i, pr := range rc.pairs {
		if i == 0 || pr.task != rc.pairs[i-1].task {
			xid = rc.s.nextXID()
		}
		// A grown prepBuf leaves earlier values intact in the old array.
		lo := len(rc.prepBuf)
		rc.prepBuf = wal.AppendPrepareValue(rc.prepBuf, rc.recs[pr.lo:pr.hi])
		prep[pr.part] = append(prep[pr.part], wal.Record{Kind: wal.RecPrepare, Key: xid, Value: rc.prepBuf[lo:len(rc.prepBuf):len(rc.prepBuf)]})
		commit[pr.part] = append(commit[pr.part], wal.Record{Kind: wal.RecCommit, Key: xid})
	}

	for pi, p := range union {
		if len(prep[pi]) == 0 {
			continue
		}
		seq, err := appendWAL(p, prep[pi])
		if err != nil {
			rc.abortRound(err)
			return err
		}
		p.xsPrepares.Add(uint64(len(prep[pi])))
		rc.syncShs, rc.syncSeqs = append(rc.syncShs, p), append(rc.syncSeqs, seq)
	}
	// Phase-1 barrier: every prepare durable before any commit record can
	// exist. (The walMus stay held; Sync never takes them.)
	if err := rc.syncAll(); err != nil {
		rc.abortRound(err)
		return err
	}
	// Phase 2: the decisions, in task order per participant. A task's group
	// is committed the moment the first of its commit records becomes
	// durable — sound because phase 1 made every participant's prepare
	// outlive it. The sequences awaiting the final flush replace phase 1's.
	var firstErr error
	for i, p := range rc.syncShs {
		seq, err := appendWAL(p, commit[rc.uindex[p]])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		rc.syncSeqs[i] = seq
	}
	if firstErr != nil {
		// Some logs hold commit records and some cannot: whether each task
		// survives a restart is decided by the any-commit rule, not by what
		// these shards' memory says — flip them all.
		for _, p := range rc.syncShs {
			rc.s.noteShardWALFault(p, firstErr)
		}
		rc.syncShs, rc.syncSeqs = rc.syncShs[:0], rc.syncSeqs[:0]
		return firstErr
	}
	return nil
}

// abortRound abandons a round whose phase 1 failed. Memory holds every
// task's effects but the logs will not replay them: append the abort
// decisions where the prepares landed (so the next recovery resolves
// instantly instead of hunting for commit records) and flip every
// participant holding round records read-only.
func (rc *roundCoordinator) abortRound(err error) {
	for _, p := range rc.syncShs {
		rc.aborts = rc.aborts[:0]
		for _, r := range rc.prep[rc.uindex[p]] {
			rc.aborts = append(rc.aborts, wal.Record{Kind: wal.RecAbort, Key: r.Key})
		}
		_, _, _ = p.log.Append(rc.aborts) // best effort: recovery aborts an undecided prepare anyway
		p.xsPrepareAborts.Add(uint64(len(rc.aborts)))
	}
	for pi, p := range rc.union {
		if len(rc.prep[pi]) > 0 {
			rc.s.noteShardWALFault(p, err)
		}
	}
	rc.syncShs, rc.syncSeqs = rc.syncShs[:0], rc.syncSeqs[:0]
}

// syncAll flushes rc.syncSeqs[i] on rc.syncShs[i], concurrently (each Sync
// piggybacks with that shard's other committers; the coordinator takes the
// first itself). A failed flush flips only the failing shard read-only — a
// sibling whose flush succeeded has its records durable and stays consistent
// — and the first error is returned.
func (rc *roundCoordinator) syncAll() error {
	shs, seqs := rc.syncShs, rc.syncSeqs
	if len(shs) == 0 {
		return nil
	}
	rc.syncErrs = resized(rc.syncErrs, len(shs))
	errs := rc.syncErrs
	var wg sync.WaitGroup
	for i := 1; i < len(shs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = shs[i].log.Sync(seqs[i])
		}()
	}
	errs[0] = shs[0].log.Sync(seqs[0])
	wg.Wait()
	var first error
	for i, err := range errs {
		if err != nil {
			rc.s.noteShardWALFault(shs[i], err)
			if first == nil {
				first = err
			}
		}
	}
	return first
}
