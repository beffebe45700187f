// Multi-shard execution: one round coordinator per server.
//
// Work that involves more than one sub-shard — an ATOMIC batch whose keys
// span them, a SCAN page, which consults them all — is never a shard worker's
// business: the connection reader that planned it (conn.dispatch) puts it on
// the server's one bounded round queue. A single coordinator goroutine takes
// EVERYTHING queued and runs it as one round: one canonical-order walMu
// acquisition, one quiesce of the union participant set (votm.AtomicAll — the
// server's only call of it), the tasks back to back inside it, ONE prepare
// record per writable participant — and then, with every mutex released, ONE
// flush of all participants at once. The coordinator is the only goroutine
// that ever pauses more than one view, so the order it pauses them in is its
// private business: no other acquirer exists to deadlock with.
//
// The round is committed iff every participant's log is durable through the
// sequence its prepare landed at (the all-prepared rule; each prepare lists
// them all). There is no second phase and no second append: RecCommit is an
// annotation each participant owes its log once the flush returned, riding
// in front of whatever batch that log takes next (appendWAL), so only the
// last round before a crash is ever undecided in its own log. Releasing
// walMu before the flush is sound because of the in-doubt shard: from a
// round's prepare append until the round is durable everywhere, anything
// that turns the shard's state into a durability claim waits for the round —
// a write group that appended behind the prepare stays on its completion list
// until the coordinator settles the round there (ackStage.settleRound
// releases it, or the shard's flusher, whichever comes last), a state capture
// waits before it walks (ackStage.awaitRound). Three invariants:
//
//   - Replay order = memory order. A prepare's effects apply at the
//     prepare's position; replay holds the prepare and everything behind it
//     until the decision (redoApplier, durability.go).
//   - Nothing voided was ever acknowledged. A group behind an undecided
//     prepare answers only once the round's flush succeeded on every
//     participant — exactly the condition under which recovery commits it.
//   - One round in doubt at a time. The coordinator is one goroutine and owes
//     round k's annotations before it builds round k+1, so in every log C_k
//     precedes P_k+1 and a held suffix never contains a second prepare.
//
// A round is a window of the window-based contention managers (Sharma,
// Estrade, Busch; PAPERS.md): rounds exclude each other anyway — any two
// share participants — so the coordinator makes that Q = 1 explicit and fills
// the next round while the running one flushes. A window is atomic as a
// whole at recovery, so its tasks may depend on each other freely.
package server

import (
	"slices"
	"sync"
	"sync/atomic"

	"votm"
	"votm/ds"
	"votm/internal/wal"
	"votm/wire"
)

// roundBodyBudget bounds the redo bytes the coordinator admits into one
// round. In the worst case every byte lands in ONE participant's prepare
// record, and wal.Log.Append refuses a batch above wal.MaxBatchBody — a
// refusal that would flip the participant read-only. The budget is checked
// before each dequeue, so a round overshoots by at most one task (a request
// frame is bounded by wire.MaxFrame).
const roundBodyBudget = wal.MaxBatchBody / 2

// subRedoOverhead over-approximates the WAL framing one writing sub adds to
// a prepare record beyond its value bytes: the nested record header, an
// ADD's 8-byte post-image and a share of the prepare wrapping it.
const subRedoOverhead = 40

// roundTask is one task's slot in a round: a spanning ATOMIC (its plan's
// ownership remapped onto the round's union participant indices once the
// round starts) or a SCAN page (t.batch == nil).
type roundTask struct {
	t        task
	resp     *wire.Response
	hasWrite bool
	pageErr  error // a page's verdict; a batch carries its own (multiBatch.err)
}

// verdict is where the task's verdict lives: nil there means the task may
// (still) execute, or executed and is answered OK.
func (rt *roundTask) verdict() *error {
	if b := rt.t.batch; b != nil {
		return &b.err
	}
	return &rt.pageErr
}

// roundShare is one union participant's share of a round's redo records:
// recs[lo:hi] of the coordinator's record scratch, from n tasks.
type roundShare struct{ lo, hi, n int }

// RoundStats counts the coordination rounds a server has run.
type RoundStats struct {
	Rounds  uint64 // rounds executed
	Tasks   uint64 // tasks they carried: spanning ATOMIC batches and SCAN pages
	Largest uint64 // most tasks in one round
	Pages   uint64 // the SCAN pages among Tasks
	// Logged counts the rounds that appended redo records, Flushes the flush
	// barriers they waited on (one each on a healthy server); the write
	// groups a round in doubt held back are AckStats.Gated.
	Logged, Flushes uint64
}

// MeanTasks is the mean number of tasks per round (0 before any round).
func (r RoundStats) MeanTasks() float64 { return ratio(r.Tasks, r.Rounds) }

// FlushesPerRound is the mean number of flush barriers a logging round
// waited on (0 before any).
func (r RoundStats) FlushesPerRound() float64 { return ratio(r.Flushes, r.Logged) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RoundStats returns the server's round counters. In-process only: the wire
// STATS frame is per shard and a round belongs to none.
func (s *Server) RoundStats() RoundStats {
	rc := s.rounds
	return RoundStats{
		Rounds:  rc.nRounds.Load(),
		Tasks:   rc.nTasks.Load(),
		Largest: rc.largest.Load(),
		Pages:   rc.nPages.Load(),
		Logged:  rc.nLogged.Load(),
		Flushes: rc.nFlushes.Load(),
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
	// logs.
	durable bool

	// queue is where the connection readers put planned multi-shard work.
	// Its capacity is Config.QueueDepth — the bound a shard's own queue has —
	// and a reader that finds it full answers BUSY.
	queue chan task
	done  chan struct{}

	nRounds, nTasks, largest, nPages, nLogged, nFlushes atomic.Uint64

	tasks []roundTask // the round being built or run
	bytes int         // its redo volume (see roundBodyBudget)
	// pages counts the round's SCAN pages, pageKeys sums their limits: the
	// merge work the pause may have to carry (see next).
	pages, pageKeys int

	uindex     map[*shard]int // participant -> union index
	union      []*shard
	views      []*votm.View
	unionWrite []bool // per union participant: some task mutates it
	writes     []bool // task-major matrix: writes[ti*len(union)+pi]
	// fx is the round's reservation and effect list on each union participant
	// (store.go): every batch's slots there are reserved together and settled
	// together, one allocator lock each.
	fx []effects

	recs    []wal.Record // redo-record scratch, participant-major
	valBuf  []byte       // SubAdd post-image scratch backing recs
	shares  []roundShare // per union participant
	parts   []wal.Participant
	prepBuf []byte        // prepare-record payload scratch
	rec     [2]wal.Record // a prepare batch: the prepare, and room for an owed annotation
	// xid names the round while its prepares are in doubt (0: it logged a
	// plain batch or nothing). syncShs/syncSeqs are the participants that
	// logged and the sequences their answers wait on.
	xid      uint64
	syncShs  []*shard
	syncSeqs []uint64
	syncErrs []error

	repScratch []*replica // waitReplicated's follower snapshot (cluster mode)

	// A page's k-way merge state, per union participant (scan.go).
	cursors     []ds.Ref
	keys        []uint64
	contributed []uint64
}

func newRoundCoordinator(s *Server) *roundCoordinator {
	return &roundCoordinator{
		s:          s,
		th:         s.rt.RegisterThread(),
		reqContext: reqContext{timeout: s.cfg.RequestTimeout},
		durable:    s.cfg.Durability == DurabilityGroup,
		queue:      make(chan task, s.cfg.QueueDepth),
		done:       make(chan struct{}),
		uindex:     make(map[*shard]int),
	}
}

// submit queues a planned spanning ATOMIC or a SCAN page for the next round.
// False means the round queue is full: nothing executed, and the reader
// answers BUSY.
func (rc *roundCoordinator) submit(t task) bool {
	select {
	case rc.queue <- t:
		return true
	default:
		return false
	}
}

// stop ends the coordinator once every queued task is answered. The queue's
// senders are the connection readers, each holding a reqWG count from before
// its send until its task is answered: the caller must have seen reqWG drain
// (with beginReq refusing), so nothing is queued and nobody can send.
func (rc *roundCoordinator) stop() {
	close(rc.queue)
	<-rc.done
}

// loop is the coordinator goroutine.
func (rc *roundCoordinator) loop() {
	defer close(rc.done)
	defer rc.th.Release()
	defer rc.reqContext.close()
	for rc.next() {
	}
}

// next blocks for one task, takes whatever else is queued and runs the lot as
// one round; false means the queue is closed and empty. Dequeuing stops when
// the queue is empty, the redo budget is spent, or the admitted pages' limits
// sum to wire.MaxScanKeys — one maximal page of merge work per pause, the
// most a single page could ask of it. Both bounds are checked before each
// dequeue, so a round overshoots either by at most one task; what it leaves
// queued runs in the next round.
func (rc *roundCoordinator) next() bool {
	t, ok := <-rc.queue
	if !ok {
		return false
	}
	rc.admit(t)
fill:
	for rc.bytes < roundBodyBudget && rc.pageKeys < wire.MaxScanKeys {
		select {
		case t, ok := <-rc.queue:
			if !ok {
				break fill // the last round runs; the next receive reports the close
			}
			rc.admit(t)
		default:
			break fill
		}
	}
	rc.runRound()
	return true
}

// admit places one dequeued task into the round being built. A durable write
// to a shard that lost its WAL joins with its verdict already in (TxFault):
// it executes nothing and is answered with the round.
func (rc *roundCoordinator) admit(t task) {
	rt := roundTask{t: t}
	if b := t.batch; b == nil {
		rc.pages++
		rc.pageKeys += int(t.req.Limit)
	} else {
		for i, sub := range b.subs {
			if sub.Kind != wire.SubGet {
				rt.hasWrite = true
				rc.bytes += subRedoOverhead + len(sub.Value)
				if rc.durable && b.parts[b.owner[i]].readOnly.Load() {
					b.err = txFault{errShardReadOnly}
				}
			}
		}
	}
	rc.tasks = append(rc.tasks, rt)
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

// undecided gives every task without a verdict the round's.
func (rc *roundCoordinator) undecided(err error) {
	for i := range rc.tasks {
		if v := rc.tasks[i].verdict(); *v == nil {
			*v = err
		}
	}
}

// runTasks is the round's body inside the quiesce: every task that still has
// no verdict executes, in task order, against the union's handles.
func (rc *roundCoordinator) runTasks(txs []votm.Tx) error {
	for i := range rc.tasks {
		if v := rc.tasks[i].verdict(); *v == nil {
			*v = rc.execContained(&rc.tasks[i], txs)
		}
	}
	return nil
}

// execContained runs one task of the round, containing a panic to that task:
// its round-mates already executed (or still can) inside the same irrevocable
// quiesce, so the fault must not unwind them. (The forwarding guard cannot
// fire here — routing is frozen, exec checked every key and a page its
// membership — so any panic is a task-local fault.)
func (rc *roundCoordinator) execContained(rt *roundTask, txs []votm.Tx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = txFault{r}
		}
	}()
	if b := rt.t.batch; b != nil {
		return b.exec(rc.s, rc.union, txs, rc.fx)
	}
	return rc.runPage(rt.t.req, rt.resp, txs)
}

// runRound executes rc.tasks — spanning ATOMIC batches and SCAN pages, one or
// many — as ONE coordination round: the union of their participant views is
// quiesced once (votm.AtomicAll), the tasks run back to back inside it with
// exclusive lock-mode access and per-task verdicts, and durability is one
// prepare per participant and one flush (appendRound), so recovery
// (resolveCrossShard) applies the round on all its participants or none, no
// matter where a crash lands.
//
//   - Only the union is paused. A page consults every serving sub-shard, so a
//     round that carries one takes them all; a page-free round pauses exactly
//     its batches' participants.
//   - Task order is execution order: a page sees the batches queued before it
//     and none queued after, and k queued pages share the one pause.
//   - A task's failure (stale route, bad add, panic) lands in its own verdict
//     and never touches its round-mates: validation precedes every write, so
//     a failed batch wrote nothing. A round-level failure (pause error,
//     cancellation, a panic before the body) means nothing executed and
//     becomes every undecided task's verdict.
//   - The plan the reader attached to a batch may be stale by now (a split
//     between dispatch and round), and so may the sub-shard set a page's
//     round snapshotted: exec re-verifies every key's owner inside the
//     quiesce, before the batch's first write, a page the set's size before
//     its first read, and either answers BUSY. Nothing re-plans.
//   - Every writable participant's walMu is taken in canonical order BEFORE
//     any view is paused and held until its prepare is appended — never
//     across the flush: each shard's log order equals its memory commit
//     order, and — because group writers hold their one walMu before entering
//     the view — a paused view can never contain a transaction that waits on
//     a mutex held here. Whatever executes on a participant after the
//     release logs behind the prepare and inherits the round's doubt. A
//     read-only round (pages, GET-only batches) takes no walMu at all.
//   - A WAL failure anywhere abandons the WHOLE round's durability: every
//     participant flips read-only, writing tasks and the groups behind the
//     prepares answer TxFault.
func (rc *roundCoordinator) runRound() {
	s, tasks := rc.s, rc.tasks
	defer rc.reset()
	if len(tasks) == 0 {
		return
	}

	union := rc.union[:0]
	if rc.pages > 0 {
		union = s.appendSubShards(union)
	} else {
		for i := range tasks {
			for _, p := range tasks[i].t.batch.parts {
				if _, seen := rc.uindex[p]; !seen {
					rc.uindex[p] = 0
					union = append(union, p)
				}
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
	rc.nPages.Add(uint64(rc.pages))
	maxInto(&rc.largest, uint64(len(tasks)))

	// Per-task setup: response and, for a batch, union-indexed ownership,
	// write set and the slots it wants; then ONE reservation per participant.
	for len(rc.fx) < nu {
		rc.fx = append(rc.fx, effects{})
	}
	rc.unionWrite = resized(rc.unionWrite, nu)
	rc.writes = resized(rc.writes, len(tasks)*nu)
	unionWrite, writes := rc.unionWrite, rc.writes
	hasWrite := false
	for ti := range tasks {
		rt := &tasks[ti]
		rt.resp = wire.NewResponse()
		rt.resp.Op, rt.resp.ID = rt.t.req.Op, rt.t.req.ID
		b := rt.t.batch
		if b == nil {
			continue
		}
		for si, sub := range b.subs {
			ui := rc.uindex[b.parts[b.owner[si]]]
			b.owner[si] = ui
			if sub.Kind != wire.SubGet {
				writes[ti*nu+ui], unionWrite[ui] = true, true
			}
		}
		hasWrite = hasWrite || rt.hasWrite
		b.results = rt.resp.Subs[:0]
		b.want(union, rc.fx)
	}
	for pi, p := range union {
		if err := p.reserve(&rc.fx[pi]); err != nil {
			// reserve grows a live view, so this one is gone (the server is
			// shutting down) and the quiesce could only fail too.
			rc.undecided(err)
		}
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
			// The one place a round's reservations are settled, on every path.
			// The body runs once, in lock mode, so the slots record exactly
			// what was linked — everything a refused batch asked for goes
			// back, and after a panic that unwound AtomicAll (an injected
			// admission fault: nothing executed, every undecided task gets it
			// as its verdict) so does everything.
			if r := recover(); r != nil {
				s.logf("votmd: %v in a round of %d", r, len(tasks))
				rc.undecided(txFault{r})
			}
			for pi, p := range union {
				p.settle(&rc.fx[pi], true)
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
					if b := tasks[ti].t.batch; writes[ti*nu+pi] && b.err == nil {
						b.err = errShardMoving
					}
				}
			}
		}
		rc.views = resized(rc.views, nu)
		for i, p := range union {
			rc.views[i] = p.view
		}
		if err := votm.AtomicAll(rc.ctx(), rc.th, rc.views, !hasWrite, rc.runTasks); err != nil {
			rc.undecided(err)
		}
		if durable {
			walErr = rc.appendRound()
		}
	}()
	// The round's one flush, with no mutex held: the participants' groups
	// execute and append meanwhile, gated on this round by their doubt mark,
	// and their flushers share this flush (wal.Log.Sync).
	if walErr == nil && len(rc.syncShs) > 0 {
		rc.nLogged.Add(1)
		walErr = rc.syncAll()
	}
	if rc.xid != 0 {
		// Durable on every participant, or faulted: either way the doubt
		// ends here. A durable round's annotation costs no append of its own:
		// each participant owes it to the next batch its log takes
		// (appendWAL) — certainly this coordinator's next prepare.
		for _, p := range rc.union {
			p.ack.settleRound(rc.xid, walErr)
		}
	}
	if walErr == nil {
		// Under cluster leadership every writing task's answer also waits on
		// every participant's semi-sync replication point.
		for i, p := range rc.syncShs {
			if rc.xid != 0 {
				p.owed.Store(rc.xid)
			}
			rc.repScratch = s.waitReplicated(p, rc.syncSeqs[i], rc.repScratch)
		}
	}
	for i := range tasks {
		rt := &tasks[i]
		resp, b := rt.resp, rt.t.batch
		switch err := *rt.verdict(); {
		case err != nil:
			resp.Entries = resp.Entries[:0] // a page that faulted mid-merge
			resp.More, resp.Cursor = false, 0
			status, detail := errStatus(err)
			resp.Status = status
			resp.SetDetail(detail)
		case walErr != nil && rt.hasWrite:
			// A read-only task's result needs no durability point; a writing
			// one cannot distinguish its own records from the round's fault.
			resp.Status = wire.StatusTxFault
			resp.SetDetail("wal: " + walErr.Error())
		case b != nil:
			resp.Subs = b.results
			for _, p := range b.parts {
				p.xsGroups.Add(1)
			}
		}
		if b != nil {
			s.releaseBatch(b)
		}
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
	rc.bytes, rc.pages, rc.pageKeys, rc.xid = 0, 0, 0, 0
}

// appendRound logs the round's committed batches, under the participants'
// walMus. Per participant it gathers every task's redo records in task order
// — the order they executed in — and appends them as ONE prepare record
// under the round's one xid, each prepare listing every participant with the
// sequence its prepare lands at (stable: appenders hold walMu). Every
// participant is marked in doubt (shard.doubt) before the mutexes drop. A
// round whose records all land on ONE participant is a plain batch append —
// atomic by its CRC frame, ordered by its own log — and puts no shard in
// doubt. The participants that logged and the sequences awaiting the flush
// are left in rc.syncShs/rc.syncSeqs.
//
// A failed append abandons the round: the prepares that landed are annotated
// aborted (the failing log never reaches its listed sequence, so no recovery
// can find the round all-prepared), every participant flips read-only and
// stays in doubt.
func (rc *roundCoordinator) appendRound() error {
	s, union, tasks, nu := rc.s, rc.union, rc.tasks, len(rc.union)
	rc.recs, rc.valBuf = rc.recs[:0], rc.valBuf[:0]
	rc.shares = resized(rc.shares, nu)
	for pi, p := range union {
		sh := &rc.shares[pi]
		sh.lo = len(rc.recs)
		for ti := range tasks {
			if b := tasks[ti].t.batch; rc.writes[ti*nu+pi] && b.err == nil {
				n := len(rc.recs)
				rc.recs, rc.valBuf = appendAtomicRecords(rc.recs, rc.valBuf, b, pi)
				if len(rc.recs) > n { // else e.g. only missed deletes landed here
					sh.n++
				}
			}
		}
		if sh.hi = len(rc.recs); sh.n > 0 {
			rc.syncShs = append(rc.syncShs, p)
		}
	}
	switch len(rc.syncShs) {
	case 0:
		return nil // no task mutated state anywhere
	case 1:
		p := rc.syncShs[0]
		seq, err := appendWAL(p, rc.recs)
		if err != nil {
			s.noteShardWALFault(p, err)
			rc.syncShs = rc.syncShs[:0]
			return err
		}
		rc.syncSeqs = append(rc.syncSeqs, seq)
		return nil
	}

	rc.xid = s.nextXID()
	rc.parts = rc.parts[:0]
	for _, p := range rc.syncShs {
		p.doubt = rc.xid
		rc.parts = append(rc.parts, wal.Participant{Shard: uint32(p.id), Seq: p.log.NextSeq()})
	}
	for i, p := range rc.syncShs {
		sh := rc.shares[rc.uindex[p]]
		rc.prepBuf = wal.AppendPrepareValue(rc.prepBuf[:0], rc.parts, rc.recs[sh.lo:sh.hi])
		rc.rec[0] = wal.Record{Kind: wal.RecPrepare, Key: rc.xid, Value: rc.prepBuf}
		seq, err := appendWAL(p, rc.rec[:1])
		if err != nil {
			rc.rec[0] = wal.Record{Kind: wal.RecAbort, Key: rc.xid}
			for _, q := range rc.syncShs[:i] {
				_, _, _ = q.log.Append(rc.rec[:1]) // best effort: recovery aborts it anyway
				q.xsPrepareAborts.Add(1)
			}
			for _, q := range rc.syncShs {
				s.noteShardWALFault(q, err)
			}
			rc.syncShs, rc.syncSeqs = rc.syncShs[:0], rc.syncSeqs[:0]
			return err
		}
		p.xsPrepares.Add(uint64(sh.n))
		rc.syncSeqs = append(rc.syncSeqs, seq)
	}
	return nil
}

// syncAll flushes rc.syncSeqs[i] on rc.syncShs[i], concurrently (each Sync
// piggybacks with that shard's other committers; the coordinator takes the
// first itself). If any flush fails every participant flips read-only —
// memory holds effects no log is known to replay — and the first error is
// returned.
func (rc *roundCoordinator) syncAll() error {
	shs, seqs := rc.syncShs, rc.syncSeqs
	rc.nFlushes.Add(1)
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
	for _, err := range errs {
		if err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		for _, p := range shs {
			rc.s.noteShardWALFault(p, first)
		}
	}
	return first
}
