// Multi-shard execution: one round coordinator per server.
//
// An ATOMIC batch whose keys span shards is never a shard ring's business:
// the connection reader that planned it (conn.dispatch) puts it on the
// server's one bounded round queue. A single coordinator goroutine takes the
// batches queued and runs them as one round: one canonical-order walMu
// acquisition, one quiesce of the union participant set (votm.AtomicAll), the
// batches back to back inside it, ONE prepare record per writable participant
// — and then, every mutex released, goes straight on to the next round. A
// SCAN page joins the queue only behind its connection's own unanswered round
// tasks (conn.inRound; a reader serves every other page itself, scan.go). It
// is no round's task: dequeued behind batches, it first ends the round being
// built, then is served on its own, so it sees every batch queued ahead of it
// and none behind. The coordinator pauses a round's views in shard-id order,
// the order every multi-view pauser shares (scan.go), so no two can cycle.
//
// The coordinator never waits on a flush. A logging round rides a flight
// record from its walMus to its answers: each participant's share of the
// round — its prepare's sequence — goes on that shard's completion list, the
// shard's own flusher covers it like a write group's batch, and the last
// share released settles the round. Flights settle in xid order, one at a
// time; the coordinator takes one of maxInDoubt records before it takes any
// walMu, so round k+1 executes and appends while round k flushes.
//
// The round is committed iff every participant's log is durable through the
// sequence its prepare landed at (the all-prepared rule; each prepare lists
// them all). A prepare appended while earlier rounds are in flight lists their
// participants after its own: round k+1 executed on top of round k, so "every
// listed sequence is durable" for k+1 implies it for k on every log — also
// one that never saw P_k — and an aborted k takes k+1 with it everywhere. A
// settled round is not listed: durable, it needs no listing; faulted, it left
// its participants read-only and its fault with every flight behind it, and
// theirs go read-only before the next round takes a walMu (takeFlight) — no
// later prepare shares a log with a round whose fate hangs on one it does not
// list. There is no second phase and no second append: RecCommit is an
// annotation each participant owes its log once the round settled, riding in
// front of whatever batch that log takes next (appendWAL); a later round's may
// overwrite it first, so RecCommit{x} is a watermark deciding every held
// round ≤ x. Releasing walMu before the flush is sound because of the
// in-doubt shard: until a round is durable everywhere, whatever turns a
// participant's state into a durability claim waits for it — a write group
// behind the prepare stays on its completion list until the round is settled
// there, a state capture waits before it walks (awaitRound). Three invariants:
//
//   - Replay order = memory order. A prepare's effects apply at the prepare's
//     position; replay holds the prepare and everything behind it until the
//     decision (redoApplier, durability.go).
//   - Nothing voided was ever acknowledged. A group behind an undecided
//     prepare answers only once that round and every round before it are
//     durable on every participant. A fault is sticky from the first faulted
//     xid upward: that round, every round in flight behind it and every group
//     behind their prepares answer TxFault, and their participants go
//     read-only.
//   - At most maxInDoubt rounds in doubt, chained. A held suffix may contain
//     the next round's prepare, so the applier, recovery and a promoted
//     follower decide until nothing is held; none of them knows the bound.
//
// A round is a window of the window-based contention managers (Sharma,
// Estrade, Busch; PAPERS.md): windows execute one after another — any two
// share participants, so Q = 1 is explicit — but window k+1 does not wait
// for window k's disk.
package server

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"votm"
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

// roundTask is one spanning ATOMIC's slot in a round, its plan's ownership
// remapped onto the round's union participant indices once the round starts.
// Its verdict is the batch's (multiBatch.err): nil means it may (still)
// execute, or executed and is answered OK.
type roundTask struct {
	t        task
	hasWrite bool
}

// roundShare is one union participant's share of a round's redo records:
// recs[lo:hi] of the coordinator's record scratch, from n tasks.
type roundShare struct{ lo, hi, n int }

// maxInDoubt bounds the logging rounds in flight: one flushes while the next
// executes. Four measured no better (EXPERIMENTS.md, PR 23).
const maxInDoubt = 2

// flight carries a logging round from its walMus to its answers. Only the
// coordinator writes xid, shs and own, building the round; from the hand-over
// (shareDone) on the tasks are the settling goroutine's.
type flight struct {
	rc    *roundCoordinator
	tasks []roundTask
	// xid names the round while its prepares are in doubt (0: it logged a plain
	// batch or nothing). shs are the participants that logged, own[i] where
	// shs[i]'s share was listed (empty after a failed append).
	xid uint64
	shs []*shard
	own []wal.Participant
	// pending counts the build and every listed share; err is the first fault
	// among them, or an earlier flight's. Both guarded by rc.fmu.
	pending int
	err     error
}

// RoundStats counts the coordination rounds a server has run, and the SCAN
// pages and point GETs served beside them — by the coordinator or, folded in
// as each reader publishes its answers, by the connection readers.
type RoundStats struct {
	Rounds  uint64 // rounds executed
	Tasks   uint64 // tasks they carried: spanning ATOMIC batches
	Largest uint64 // most tasks in one round
	// Pages counts the SCAN pages served; PageTries the validated reads they
	// made (votm.ReadAll), PageFallbacks those that ran out of tries and read
	// inside a quiesce instead.
	Pages, PageTries, PageFallbacks uint64
	Gets, GetTries, GetFallbacks    uint64 // the same for point GETs; they fall back to AtomicRead
	// Logged counts the rounds that appended redo records; the write groups a
	// round in doubt held back are AckStats.Gated.
	Logged uint64
	// Overlapped counts the rounds that executed while an earlier one was in
	// flight, InDoubtHigh the most flights out at once (≤ maxInDoubt),
	// FlightWaitNs the coordinator's wait for a free one — its only disk wait.
	Overlapped, InDoubtHigh, FlightWaitNs uint64
	// PausedNs sums the wall time of the quiesces (votm.AtomicAll, pause and
	// drain included) of the rounds and of the pages that fell back: the time
	// their views served nothing else.
	PausedNs uint64
}

// MeanTasks is the mean number of tasks per round (0 before any round).
func (r RoundStats) MeanTasks() float64 { return float64(r.Tasks) / float64(max(r.Rounds, 1)) }

// RoundStats returns the server's round counters. In-process only: the wire
// STATS frame is per shard and a round belongs to none.
func (s *Server) RoundStats() RoundStats { return s.rounds.stats() }

func (rc *roundCoordinator) stats() RoundStats {
	return RoundStats{
		Rounds:        rc.nRounds.Load(),
		Tasks:         rc.nTasks.Load(),
		Largest:       rc.largest.Load(),
		Pages:         rc.nPages.Load(),
		PageTries:     rc.nPageTries.Load(),
		PageFallbacks: rc.nPageFallbacks.Load(),
		Gets:          rc.nGets.Load(),
		GetTries:      rc.nGetTries.Load(),
		GetFallbacks:  rc.nGetFallbacks.Load(),
		Logged:        rc.nLogged.Load(),
		Overlapped:    rc.nOverlapped.Load(),
		InDoubtHigh:   rc.inDoubtHigh.Load(),
		FlightWaitNs:  rc.flightWaitNs.Load(),
		PausedNs:      rc.pausedNs.Load(),
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

	nRounds, nTasks, largest, nLogged      atomic.Uint64
	nOverlapped, inDoubtHigh, flightWaitNs atomic.Uint64
	// The page and GET meters are added to by every executor that serves
	// them (addPages, conn.answer), pausedNs by rounds and fallen-back pages.
	pausedNs                           atomic.Uint64
	nPages, nPageTries, nPageFallbacks atomic.Uint64
	nGets, nGetTries, nGetFallbacks    atomic.Uint64

	// free holds the flight records not in use; inflight the rounds that took
	// one, in xid order, settling that shareDone is at its head (both under fmu).
	free     chan *flight
	fmu      sync.Mutex
	inflight []*flight
	settling bool

	tasks []roundTask // the round being built or run
	bytes int         // its redo volume (see roundBodyBudget)

	uindex     map[*shard]int // participant -> union index
	union      []*shard
	views      []*votm.View
	unionWrite []bool // per union participant: some task mutates it
	writes     []bool // task-major matrix: writes[ti*len(union)+pi]
	// fx is the round's reservation and effect list on each union participant
	// (store.go): every batch's slots there are reserved together and settled
	// together, one allocator lock each.
	fx []effects

	recs   []wal.Record // redo-record scratch, participant-major
	valBuf []byte       // SubAdd post-image scratch backing recs
	shares []roundShare // per union participant
	// parts is a prepare's participant list: the round's own, then deps, those
	// of the rounds in doubt when it took its flight.
	parts, deps []wal.Participant
	prepBuf     []byte        // prepare-record payload scratch
	rec         [2]wal.Record // a prepare batch: the prepare, and room for an owed annotation

	// pg serves the pages queued behind their connection's own round tasks
	// (scan.go).
	pg pager
}

func newRoundCoordinator(s *Server) *roundCoordinator {
	rc := &roundCoordinator{
		s:          s,
		th:         s.rt.RegisterThread(),
		reqContext: reqContext{timeout: s.cfg.RequestTimeout},
		durable:    s.cfg.Durability == DurabilityGroup,
		queue:      make(chan task, s.cfg.QueueDepth),
		done:       make(chan struct{}),
		uindex:     make(map[*shard]int),
		free:       make(chan *flight, maxInDoubt),
	}
	for i := 0; i < maxInDoubt; i++ {
		rc.free <- &flight{rc: rc}
	}
	rc.pg = pager{s: s, th: rc.th, rctx: &rc.reqContext}
	return rc
}

// submit queues a planned spanning ATOMIC or a SCAN page for the coordinator,
// counting it among its connection's unanswered round tasks first (the count
// drops in reply). False means the round queue is full: nothing executed, the
// count is back, and the reader answers BUSY.
func (rc *roundCoordinator) submit(t task) bool {
	t.c.inRound.Add(1)
	select {
	case rc.queue <- t:
		return true
	default:
		t.c.inRound.Add(-1)
		return false
	}
}

// reply answers a queued task, taking it off its connection's unanswered
// round tasks before the answer can reach the client: a page the client sends
// after its last round answer is the reader's to serve.
func (rc *roundCoordinator) reply(t task) {
	t.c.inRound.Add(-1)
	rc.s.finish(t)
}

// servePage serves a page queued behind its connection's round tasks.
func (rc *roundCoordinator) servePage(t task) {
	rc.pg.serve(t, rc.addOwnPages)
	rc.addOwnPages()
	rc.reply(t)
}

func (rc *roundCoordinator) addOwnPages() { rc.addPages(&rc.pg) }

// addPages adds a pager's page meters to the totals and zeroes them.
func (rc *roundCoordinator) addPages(p *pager) {
	if p.pages|p.tries|p.falls|p.pausedNs == 0 {
		return
	}
	rc.nPages.Add(p.pages)
	rc.nPageTries.Add(p.tries)
	rc.nPageFallbacks.Add(p.falls)
	rc.pausedNs.Add(p.pausedNs)
	p.pages, p.tries, p.falls, p.pausedNs = 0, 0, 0, 0
}

// stop ends the coordinator once every queued task is answered. The queue's
// senders are the connection readers, and a connection holds its reqWG count
// until its reader exited and its tasks are answered: the caller must have
// seen reqWG drain (beginReq refusing), so nothing is queued, nobody can send.
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

// next blocks for one task, takes whatever else is queued and runs the
// batches as one round; false means the queue is closed and empty. A page
// dequeued ends the round being built — it runs, appended, before the page
// is served — so the page sees every batch queued ahead of it and none
// behind. Dequeuing stops when the queue is empty or the redo budget is
// spent, checked before each dequeue, so a round overshoots by at most one
// task; what it leaves queued runs in the next round.
func (rc *roundCoordinator) next() bool {
	t, ok := <-rc.queue
	if !ok {
		return false
	}
	rc.take(t)
fill:
	for rc.bytes < roundBodyBudget {
		select {
		case t, ok := <-rc.queue:
			if !ok {
				break fill // the last round runs; the next receive reports the close
			}
			rc.take(t)
		default:
			break fill
		}
	}
	rc.runRound()
	return true
}

// take places one dequeued task: a batch into the round being built; a page
// is served once that round has run.
func (rc *roundCoordinator) take(t task) {
	if t.batch == nil {
		rc.runRound()
		rc.servePage(t)
		return
	}
	rc.admit(t)
}

// admit places one dequeued batch into the round being built.
func (rc *roundCoordinator) admit(t task) {
	rt := roundTask{t: t}
	for _, sub := range t.batch.subs {
		if sub.Kind != wire.SubGet {
			rt.hasWrite = true
			rc.bytes += subRedoOverhead + len(sub.Value)
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
		if b := rc.tasks[i].t.batch; b.err == nil {
			b.err = err
		}
	}
}

// runTasks is the round's body inside the quiesce: every batch that still has
// no verdict executes, in task order, against the union's handles.
func (rc *roundCoordinator) runTasks(txs []votm.Tx) error {
	for i := range rc.tasks {
		if b := rc.tasks[i].t.batch; b.err == nil {
			b.err = rc.execContained(b, txs)
		}
	}
	return nil
}

// execContained runs one batch of the round, containing a panic to that
// batch: its round-mates already executed (or still can) inside the same
// irrevocable quiesce, so the fault must not unwind them.
func (rc *roundCoordinator) execContained(b *multiBatch, txs []votm.Tx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = txFault{r}
		}
	}()
	return b.exec(rc.union, txs, rc.fx)
}

// runRound executes rc.tasks — spanning ATOMIC batches, one or many — as ONE
// coordination round: the union of their participant views is quiesced once
// (votm.AtomicAll), the batches run back to back inside it with exclusive
// lock-mode access and per-task verdicts, and durability is one prepare per
// participant (appendRound), flushed by the participants' own flushers: a
// logging round returns appended and unanswered (see the header).
//
//   - Only the union is paused: exactly the batches' participants.
//   - Task order is execution order.
//   - A task's failure (bad add, panic) lands in its own verdict
//     and never touches its round-mates: validation precedes every write, so
//     a failed batch wrote nothing. A round-level failure (pause error,
//     cancellation, a panic before the body) means nothing executed and
//     becomes every undecided task's verdict.
//   - Every writable participant's walMu is taken in canonical order BEFORE
//     any view is paused and held until its prepare is appended — never
//     across the flush: each shard's log order equals its memory commit
//     order, and — because group writers hold their one walMu before entering
//     the view — a paused view can never contain a transaction that waits on
//     a mutex held here. A read-only round (GET-only batches) takes no walMu
//     and no flight: it is answered at once, and may have read an earlier
//     round's committed, not yet durable writes — what GET and SCAN promise
//     too.
//   - A WAL failure anywhere abandons the WHOLE round's durability and that of
//     every round in flight behind it (the header's sticky fault); a later one
//     is refused the read-only participants under the walMus, before
//     anything executes.
func (rc *roundCoordinator) runRound() {
	s, tasks := rc.s, rc.tasks
	defer rc.reset()
	if len(tasks) == 0 {
		return
	}

	union := rc.union[:0]
	for i := range tasks {
		for _, p := range tasks[i].t.batch.parts {
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

	// Per-task setup: a batch's union-indexed ownership, write set and the
	// slots it wants; then ONE reservation per participant.
	for len(rc.fx) < nu {
		rc.fx = append(rc.fx, effects{})
	}
	rc.unionWrite = resized(rc.unionWrite, nu)
	rc.writes = resized(rc.writes, len(tasks)*nu)
	unionWrite, writes := rc.unionWrite, rc.writes
	hasWrite := false
	for ti := range tasks {
		rt := &tasks[ti]
		b := rt.t.batch
		for si, sub := range b.subs {
			ui := rc.uindex[b.parts[b.owner[si]]]
			b.owner[si] = ui
			if sub.Kind != wire.SubGet {
				writes[ti*nu+ui], unionWrite[ui] = true, true
			}
		}
		hasWrite = hasWrite || rt.hasWrite
		b.results = rt.t.resp.Subs[:0]
		b.want(union, rc.fx)
	}
	for pi, p := range union {
		if err := p.reserve(&rc.fx[pi]); err != nil {
			// reserve grows a live view, so this one is gone (the server is
			// shutting down) and the quiesce could only fail too.
			rc.undecided(err)
		}
	}
	// A logging round takes its flight before any walMu.
	var fl *flight
	if hasWrite && rc.durable {
		fl = rc.takeFlight()
	}

	var walErr error
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
		if fl != nil {
			for i, p := range union {
				if unionWrite[i] {
					p.walMu.Lock()
				}
				locked = i + 1
			}
			for pi, p := range union {
				// A participant lost its WAL or is quiesced for a handoff: the
				// tasks that write it are refused before anything executes
				// (TxFault, BUSY); the rest of the round carries on.
				var refusal error
				if p.readOnly.Load() {
					refusal = txFault{errShardReadOnly}
				} else if p.moving.Load() {
					refusal = errShardMoving
				}
				if refusal == nil || !unionWrite[pi] {
					continue
				}
				for ti := range tasks {
					if b := tasks[ti].t.batch; writes[ti*nu+pi] && b.err == nil {
						b.err = refusal
					}
				}
			}
		}
		rc.views = resized(rc.views, nu)
		for i, p := range union {
			rc.views[i] = p.view
		}
		t := time.Now()
		err := votm.AtomicAll(rc.ctx(), rc.th, rc.views, !hasWrite, rc.runTasks)
		rc.pausedNs.Add(uint64(time.Since(t)))
		if err != nil {
			rc.undecided(err)
		}
		if fl != nil {
			walErr = rc.appendRound(fl)
		}
	}()
	if fl == nil {
		rc.answer(tasks, nil)
		return
	}
	// The hand-over, with no mutex held: the last thing this round waited for —
	// possibly this very call — settles it.
	if walErr == nil && len(fl.own) > 0 {
		rc.nLogged.Add(1)
	}
	fl.tasks, rc.tasks = tasks, fl.tasks
	rc.shareDone(fl, walErr)
}

// takeFlight takes a free flight record — waiting, at the bound, for the
// oldest round in flight to settle — queues it and notes in rc.deps the
// participants of the rounds still in flight: this round executes on top of
// them. Those of a flight already carrying a fault go read-only here (it may
// be an earlier, unlisted round's: see the header), so runRound refuses
// whatever would write there.
func (rc *roundCoordinator) takeFlight() *flight {
	t := time.Now()
	fl := <-rc.free
	rc.flightWaitNs.Add(uint64(time.Since(t)))
	fl.xid, fl.shs, fl.own, rc.deps = 0, fl.shs[:0], fl.own[:0], rc.deps[:0]
	rc.fmu.Lock()
	if len(rc.inflight) > 0 {
		rc.nOverlapped.Add(1)
	}
	for _, f := range rc.inflight {
		if f.xid != 0 {
			rc.deps = append(rc.deps, f.own...)
		}
		if f.err != nil {
			for _, p := range f.shs {
				rc.s.noteShardWALFault(p, f.err)
			}
		}
	}
	fl.pending, fl.err = 1, nil
	rc.inflight = append(rc.inflight, fl)
	maxInto(&rc.inDoubtHigh, uint64(len(rc.inflight)))
	rc.fmu.Unlock()
	return fl
}

// shareDone notes that one thing flight fl waited for is over — the build or
// a listed share (its completion list released it: flushed and replicated, or
// err) — and then settles, oldest first, every flight at the head of the
// queue that waits for nothing more, one goroutine at a time; a faulted flight
// passes its fault to every flight behind it before it leaves the queue.
func (rc *roundCoordinator) shareDone(fl *flight, err error) {
	rc.fmu.Lock()
	defer rc.fmu.Unlock()
	if fl.pending--; err != nil && fl.err == nil {
		fl.err = err
	}
	if rc.settling {
		return
	}
	rc.settling = true
	for len(rc.inflight) > 0 && rc.inflight[0].pending == 0 {
		head := rc.inflight[0]
		rc.fmu.Unlock()
		rc.settle(head, head.err)
		rc.fmu.Lock()
		n := copy(rc.inflight, rc.inflight[1:])
		rc.inflight[n], rc.inflight = nil, rc.inflight[:n]
		for _, f := range rc.inflight {
			if f.err == nil {
				f.err = head.err
			}
		}
		rc.free <- head // never blocks: the channel holds every record
	}
	rc.settling = false
}

// settle ends a flight: every share is flushed and replicated, or err left the
// round's outcome to the next recovery — then its participants flip read-only
// first, so whoever sees the flight gone sees that too. The doubt ends on
// every participant, a durable round's annotation is owed, the tasks answered.
func (rc *roundCoordinator) settle(fl *flight, err error) {
	for _, p := range fl.shs {
		if err != nil {
			rc.s.noteShardWALFault(p, err)
		}
		if fl.xid != 0 {
			if err == nil {
				p.owed.Store(fl.xid)
			}
			p.ack.settleRound(fl.xid, err)
		}
	}
	rc.answer(fl.tasks, err)
	clear(fl.tasks)
	fl.tasks = fl.tasks[:0]
}

// answer builds and sends every task's response. walErr is the round's WAL
// fault, if any: a read-only task's result needs no durability point; a
// writing one cannot distinguish its own records from the round's fault.
func (rc *roundCoordinator) answer(tasks []roundTask, walErr error) {
	s := rc.s
	for i := range tasks {
		rt := &tasks[i]
		resp, b := rt.t.resp, rt.t.batch
		switch {
		case b.err != nil:
			status, detail := errStatus(b.err)
			resp.Status = status
			resp.SetDetail(detail)
		case walErr != nil && rt.hasWrite:
			resp.Status = wire.StatusTxFault
			resp.SetDetail("wal: " + walErr.Error())
		default:
			resp.Subs = b.results
			for _, p := range b.parts {
				p.xsGroups.Add(1)
			}
		}
		s.releaseBatch(b)
		rc.reply(rt.t)
	}
}

// reset drops the finished round's references — requests and responses are
// back with their connections, interpreter state on the batch free list — and
// empties the per-round sets, keeping every backing array.
func (rc *roundCoordinator) reset() {
	clear(rc.tasks)
	rc.tasks = rc.tasks[:0]
	clear(rc.uindex)
	rc.bytes = 0
}

// appendRound logs the round's committed batches, under the participants'
// walMus. Per participant it gathers every task's redo records in task order
// — the order they executed in — and appends them as ONE prepare record
// under the round's one xid, each prepare listing every participant with the
// sequence its prepare lands at (stable: appenders hold walMu) and, behind
// them, rc.deps. Every participant is marked in doubt (shard.doubt) and its
// share listed on its completion list before the mutexes drop. A round whose
// records all land on ONE participant is a plain batch append — atomic by its
// CRC frame, ordered by its own log — and puts no shard in doubt. The
// participants that logged and where are left in fl.shs/fl.own.
//
// A failed append abandons the round: the prepares that landed are annotated
// aborted (the failing log never reaches its listed sequence, so no recovery
// can find the round all-prepared), every participant flips read-only and
// stays in doubt; no share is listed, and the flight settles with the fault.
func (rc *roundCoordinator) appendRound(fl *flight) error {
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
			fl.shs = append(fl.shs, p)
			fl.own = append(fl.own, wal.Participant{Shard: uint32(p.id), Seq: p.log.NextSeq()})
		}
	}
	switch len(fl.shs) {
	case 0:
		return nil // no task mutated state anywhere
	case 1:
		if _, err := appendWAL(fl.shs[0], rc.recs); err != nil {
			s.noteShardWALFault(fl.shs[0], err)
			fl.own = fl.own[:0]
			return err
		}
	default:
		fl.xid = s.nextXID()
		rc.parts = append(append(rc.parts[:0], fl.own...), rc.deps...)
		for _, p := range fl.shs {
			p.doubt = fl.xid
		}
		for i, p := range fl.shs {
			sh := rc.shares[rc.uindex[p]]
			rc.prepBuf = wal.AppendPrepareValue(rc.prepBuf[:0], rc.parts, rc.recs[sh.lo:sh.hi])
			rc.rec[0] = wal.Record{Kind: wal.RecPrepare, Key: fl.xid, Value: rc.prepBuf}
			if _, err := appendWAL(p, rc.rec[:1]); err != nil {
				rc.rec[0] = wal.Record{Kind: wal.RecAbort, Key: fl.xid}
				for _, q := range fl.shs[:i] {
					_, _, _ = q.log.Append(rc.rec[:1]) // best effort: recovery aborts it anyway
					q.xsPrepareAborts.Add(1)
				}
				for _, q := range fl.shs {
					s.noteShardWALFault(q, err)
				}
				fl.own = fl.own[:0]
				return err
			}
			p.xsPrepares.Add(uint64(sh.n))
		}
	}
	rc.fmu.Lock()
	fl.pending += len(fl.shs)
	rc.fmu.Unlock()
	for i, p := range fl.shs {
		p.ack.addShare(fl, fl.own[i].Seq)
	}
	return nil
}
