// Shard store: each shard is one VOTM view holding a ds.SkipList from key to
// a value-block reference, with the value bytes packed through enc. The ordered
// index makes wire-level SCAN a per-shard Seek/Next merge (scan.go), and its
// hash directory finds any looked-up key in a few loads (only a PUT's overwrite
// walks the tower). This file holds the shard and its store kernel — the one
// reservation path, the five verbs (get, put, del, cas, add), the one settle —
// and what is built directly on it: applyRecords, how redo reaches a shard, and
// multiBatch, the ATOMIC interpreter. Reads that mutate nothing (a SCAN page's
// merge, a state capture's walk) use the index directly.
package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"votm"
	"votm/ds"
	"votm/enc"
	"votm/internal/memheap"
	"votm/internal/wal"
	"votm/wire"
)

// shard is one wire-level shard: a view (own STM engine + RAC controller),
// its ordered key index, the bounded request queue whose executor-token
// holders run its write groups (ring.go), and a live-key counter kept outside
// the heap so STATS never needs a transaction. It owns exactly the keys
// ShardOf places on it.
type shard struct {
	id    int // wire-level shard index
	view  *votm.View
	idx   *ds.SkipList
	queue *ringQueue
	keys  atomic.Int64
	// queueHW is the lifetime high-water mark of the queue depth observed
	// at dispatch. Because it never decays, STATS also serves a windowed
	// variant (queueHWCur/queueHWPrev, rotated every hwWindow), so an
	// operator sees *current* pressure, not a startup burst from an hour ago.
	queueHW      atomic.Uint64
	queueHWCur   atomic.Uint64
	queueHWPrev  atomic.Uint64
	queueHWStamp atomic.Int64 // window index of queueHWCur

	// ringFull counts BUSY answers from a full queue: this shard's ring, or
	// the server's round queue when this shard is the first participant of a
	// refused cross-shard ATOMIC (a refused SCAN page counts on shard 0).
	ringFull atomic.Uint64

	// Durability state (durability.go); all zero when the server runs
	// memory-only, and log is non-nil on every durable shard. walMu
	// serializes write-group execution with the WAL append so commit order
	// equals log order; the fsync happens outside it, on the log's flusher,
	// and ack — the acknowledgement stage (group.go), non-nil exactly when
	// log is — answers the groups it covers.
	dataDir string
	log     *wal.Log
	ack     *ackStage
	walMu   sync.Mutex
	// doubt is the xid of the newest cross-shard round that logged a prepare
	// here (guarded by walMu): until that round is settled here (ackStage.settleRound),
	// whatever logs behind the prepare must not answer. owed is the xid of the
	// newest round found durable whose RecCommit annotation this log still
	// lacks: the next batch appended here carries it (appendWAL) — a watermark,
	// so a round that settles before any batch came simply overwrites it; a
	// crash forgets it and recovery decides by the all-prepared rule.
	doubt uint64
	owed  atomic.Uint64
	// readOnly flips on after a WAL append or fsync failure: the in-memory
	// state may be ahead of the durable log, so further writes are refused
	// (StatusTxFault) rather than widening the divergence.
	readOnly atomic.Bool
	// redo is the log's redo applier: startup replay's, then a follower's
	// REPLICATE stream's (guarded by walMu). moving is the live-handoff gate:
	// writers check it under walMu and answer BUSY.
	redo       redoApplier
	moving     atomic.Bool
	walAppends atomic.Uint64
	walBytes   atomic.Uint64
	replayed   atomic.Uint64 // redo records replayed at startup
	snapSeq    atomic.Uint64 // WAL seq covered by the last snapshot
	lastSnap   atomic.Int64  // unix seconds of the last snapshot; 0 = never

	// Group meters, counted in every durability mode: committed group
	// transactions (an executor's group, a redo chunk of applyRecords) and the
	// requests or records they carried, so groupOps/groups is the mean
	// group size STATS serves.
	groups   atomic.Uint64
	groupOps atomic.Uint64

	// Cross-shard ATOMIC meters (round.go runRound): committed
	// multi-participant groups this shard took part in, the (task,
	// participant) shares its prepare records carried, and prepares that
	// ended in an abort (a mid-protocol WAL fault, or recovery's verdict).
	xsGroups        atomic.Uint64
	xsPrepares      atomic.Uint64
	xsPrepareAborts atomic.Uint64

	// Scan meters (scan.go): pages served, counted on shard 0, and entries
	// this shard contributed to any page's merge.
	scans       atomic.Uint64
	scannedKeys atomic.Uint64
}

// hwWindow is the rotation period of the windowed queue high-water mark.
const hwWindow = 15 * time.Second

// hwEpoch anchors the windows: time.Since reads the monotonic clock only.
var hwEpoch = time.Now()

// hwNow is the current high-water window index.
func hwNow() int64 { return int64(time.Since(hwEpoch) / hwWindow) }

// noteDepth records the queue depth seen right after a push, in both the
// lifetime and the current-window high-water marks. A reader pushes a run of
// requests at a time, so the clock read here is paid once per run, not per
// request.
func (sh *shard) noteDepth(depth uint64) {
	maxInto(&sh.queueHW, depth)
	sh.rotateHW(hwNow())
	maxInto(&sh.queueHWCur, depth)
}

// maxInto CAS-raises m to at least v.
func maxInto(m *atomic.Uint64, v uint64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// rotateHW starts a fresh high-water window when win has moved on, keeping
// the finished window in queueHWPrev (a stale gap reports zero: nothing
// recent happened). Racing rotators and enqueues can misfile a sample by
// one window; the mark is a monitoring meter and tolerates that.
func (sh *shard) rotateHW(win int64) {
	old := sh.queueHWStamp.Load()
	if old >= win {
		// Same window, or a stale caller (clock read raced a rotation):
		// rotation only moves forward.
		return
	}
	if sh.queueHWStamp.CompareAndSwap(old, win) {
		if old == win-1 {
			sh.queueHWPrev.Store(sh.queueHWCur.Load())
		} else {
			sh.queueHWPrev.Store(0)
		}
		sh.queueHWCur.Store(0)
	}
}

// queueHWRecent is the high-water over the current and previous windows —
// the decayed pressure signal STATS serves beside the lifetime mark.
func (sh *shard) queueHWRecent() uint64 {
	sh.rotateHW(hwNow())
	return max(sh.queueHWCur.Load(), sh.queueHWPrev.Load())
}

// task is one dispatched request: planned by its connection reader (conn.go),
// executed by a token holder of its shard's ring or the round coordinator,
// answered on the originating connection. resp is the response the reader took for it, with
// Op and ID set; batch is an ATOMIC's interpreter state with the reader's
// routing plan attached, nil for every other op.
type task struct {
	req   *wire.Request
	resp  *wire.Response
	c     *conn
	batch *multiBatch
}

// growQuantum is the minimum Brk step when a shard's heap fills up.
const growQuantum = 1 << 14 // 16 Ki words = 128 KiB

// errBadAdd refuses an ADD on a value that is not 8 bytes; it aborts the
// ATOMIC batch that carried it (BAD_REQUEST).
var errBadAdd = errors.New("server: ADD on a value that is not 8 bytes")

// --- the store kernel ------------------------------------------------------
//
// Everything that changes a shard's keys goes through the functions below,
// and nothing else in the package allocates, links or frees shard memory.
// The discipline is the paper's (malloc_block and brk_view are not
// transactional): RESERVE a value block and an index node per mutation
// outside the transaction, growing the view when it is full; LINK them inside
// — a verb only ever records what it linked and what it displaced, so a
// re-executed or aborted attempt leaves no trace outside the heap words the
// engine rolls back; SETTLE after the transaction ended, retiring what the
// final attempt did not link and what it displaced in one FreeBatch, and
// publishing the key counter. The executors (group.go, round.go, the ATOMIC
// interpreter and the redo path below) decide what runs, in which
// transaction and with which verdict; they hold one effects value per shard
// they write and call reserve -> begin -> verbs -> settle on it.

// slot is one mutation's reservation: a value block and an index node (a
// plain view block sized for the mutation's key), and which of the two the
// last attempt linked.
type slot struct {
	block, node             votm.Addr
	linkedBlock, linkedNode bool
}

// effects is one executor's state on one shard across one transaction: the
// slots it reserved, and what the last attempt owes the shard once it
// commits — the blocks it displaced or unlinked, and the key-count delta.
// Every slice survives settle, so a warm executor allocates nothing here.
type effects struct {
	sizes []int       // the reservation's request: blob words, node words per slot
	addrs []votm.Addr // and its result, before it is cut into slots
	slots []slot
	frees []votm.Addr
	keys  int64

	dir       votm.Addr // a bigger index directory reserved beside the slots,
	dirWords  int       // of dirWords words (none when 0),
	dirLinked bool      // and whether the last attempt installed it
}

// want asks for a slot able to hold a val-byte value under key and returns
// its index, valid once reserve succeeded. Node words are key-dependent: the
// skip list's tower height is a deterministic function of the key.
func (fx *effects) want(sh *shard, key uint64, val int) int {
	fx.sizes = append(fx.sizes, enc.BlobWords(val), sh.idx.NodeWords(key))
	return len(fx.sizes)/2 - 1
}

// reserve carves out every slot asked of fx in one allocator lock
// acquisition, all or nothing, growing the view when it is exhausted (the
// serving layer has no a-priori size bound). Brk cannot fail on a live view
// and makes room for the whole request, so an error means the view is gone.
func (sh *shard) reserve(fx *effects) (err error) {
	sizes := fx.sizes
	fx.sizes = fx.sizes[:0]
	if len(sizes) == 0 {
		return nil
	}
	dirWords := sh.idx.NewDir(int(sh.keys.Load()) + len(sizes)/2) // each slot may create a key
	if dirWords > 0 {
		sizes = append(sizes, dirWords)
	}
	for attempt := 0; ; attempt++ {
		if fx.addrs, err = sh.view.AllocBatch(sizes, fx.addrs[:0]); err == nil {
			break
		}
		if attempt == 3 || !errors.Is(err, memheap.ErrOutOfMemory) {
			return err
		}
		grow := 0
		for _, w := range sizes {
			grow += w
		}
		if err = sh.view.Brk(max(grow, growQuantum)); err != nil {
			return err
		}
	}
	if fx.dirWords = dirWords; dirWords > 0 {
		fx.dir, fx.addrs = fx.addrs[len(fx.addrs)-1], fx.addrs[:len(fx.addrs)-1]
	}
	for i := 0; i < len(fx.addrs); i += 2 {
		fx.slots = append(fx.slots, slot{block: fx.addrs[i], node: fx.addrs[i+1]})
	}
	return nil
}

// growIndex installs reserve's directory at the attempt's first put or add, key
// created or not, and owes the array it replaces a free.
func (sh *shard) growIndex(tx votm.Tx, fx *effects) {
	if fx.dirWords > 0 && !fx.dirLinked {
		old, used := sh.idx.GrowDir(tx, ds.Ref(fx.dir), fx.dirWords)
		if fx.dirLinked = used; used {
			fx.frees = append(fx.frees, votm.Addr(old))
		}
	}
}

// begin starts one attempt of the transaction body. The body may be
// re-executed after a conflict, so whatever an earlier attempt recorded is
// forgotten: the engine rolled its writes back.
func (fx *effects) begin() {
	for i := range fx.slots {
		fx.slots[i].linkedBlock, fx.slots[i].linkedNode = false, false
	}
	fx.frees, fx.keys, fx.dirLinked = fx.frees[:0], 0, false
}

// settle ends the transaction's memory accounting, once per executor and
// shard whatever the outcome. Committed: the slots the last attempt left
// unlinked and the blocks it displaced are retired in one allocator lock
// acquisition and the key counter is published. Otherwise nothing is linked
// and every slot goes back. fx is left empty, so settling twice is harmless.
func (sh *shard) settle(fx *effects, committed bool) {
	if !committed {
		fx.begin()
	}
	for _, sl := range fx.slots {
		if !sl.linkedBlock {
			fx.frees = append(fx.frees, sl.block)
		}
		if !sl.linkedNode {
			fx.frees = append(fx.frees, sl.node)
		}
	}
	if fx.dirWords > 0 && !fx.dirLinked {
		fx.frees = append(fx.frees, fx.dir)
	}
	_ = sh.view.FreeBatch(fx.frees)
	if fx.keys != 0 { // a read group settles too: spare it the atomic
		sh.keys.Add(fx.keys)
	}
	fx.slots, fx.frees, fx.keys = fx.slots[:0], fx.frees[:0], 0
	fx.dirWords, fx.dirLinked = 0, false
}

// get appends key's value to dst (the caller's buffer: the GET path
// allocates nothing once it is warm).
func (sh *shard) get(tx votm.Tx, key uint64, dst []byte) ([]byte, bool) {
	ref, ok := sh.idx.Get(tx, key)
	if !ok {
		return dst, false
	}
	return enc.AppendBlob(dst, tx, votm.Addr(ref)), true
}

// valueLen is the length of key's value, -1 when the key is absent.
func (sh *shard) valueLen(tx votm.Tx, key uint64) int {
	if ref, ok := sh.idx.Get(tx, key); ok {
		return int(tx.Load(votm.Addr(ref)))
	}
	return -1
}

// put sets key to val through slot si, reporting whether the key was created.
func (sh *shard) put(tx votm.Tx, fx *effects, si int, key uint64, val []byte) bool {
	sh.growIndex(tx, fx)
	sl := &fx.slots[si]
	enc.StoreBlob(tx, sl.block, val)
	return sh.link(tx, fx, sl, key)
}

// link makes sl's block key's value: the displaced block is owed a free, or
// sl's node is linked and the shard has one key more.
func (sh *shard) link(tx votm.Tx, fx *effects, sl *slot, key uint64) (created bool) {
	prev, existed, used := sh.idx.Swap(tx, key, uint64(sl.block), ds.Ref(sl.node))
	sl.linkedBlock, sl.linkedNode = true, used
	if existed {
		fx.frees = append(fx.frees, votm.Addr(prev))
	} else {
		fx.keys++
	}
	return !existed
}

// del removes key, reporting whether it existed.
func (sh *shard) del(tx votm.Tx, fx *effects, key uint64) bool {
	node, ok := sh.idx.Delete(tx, key)
	if !ok {
		return false
	}
	fx.frees = append(fx.frees, votm.Addr(sh.idx.NodeVal(tx, node)), votm.Addr(node))
	fx.keys--
	return true
}

// cas replaces key's value with val through slot si iff its current bytes
// equal expect: OK, NOT_FOUND, or CAS_MISMATCH with the current value
// appended to dst.
func (sh *shard) cas(tx votm.Tx, fx *effects, si int, key uint64, expect, val, dst []byte) (wire.Status, []byte) {
	ref, ok := sh.idx.Get(tx, key)
	if !ok {
		return wire.StatusNotFound, dst
	}
	if !enc.BlobEqual(tx, votm.Addr(ref), expect) {
		return wire.StatusCASMismatch, enc.AppendBlob(dst, tx, votm.Addr(ref))
	}
	sh.put(tx, fx, si, key, val)
	return wire.StatusOK, dst
}

// add adds delta to key's 8-byte counter in place and returns the sum; an
// absent key is created through slot si holding delta. The caller has refused
// a value that is not 8 bytes (errBadAdd) before the batch's first write.
func (sh *shard) add(tx votm.Tx, fx *effects, si int, key uint64, delta uint64) uint64 {
	sh.growIndex(tx, fx)
	if ref, ok := sh.idx.Get(tx, key); ok {
		base := votm.Addr(ref)
		sum := tx.Load(base+1) + delta
		tx.Store(base+1, sum)
		return sum
	}
	sl := &fx.slots[si]
	tx.Store(sl.block, 8)
	tx.Store(sl.block+1, delta)
	sh.link(tx, fx, sl, key)
	return delta
}

// --- redo: records applied as groups ---------------------------------------

// applyChunkRecords and applyChunkBytes bound one redo transaction, so a huge
// prepare or a million-entry snapshot applies as a sequence of bounded
// transactions: a group large enough to amortize admission and commit, small
// enough for an STM write set when the view is not in lock mode. (A single
// record may exceed the byte bound; it then forms a chunk alone.)
const (
	applyChunkRecords = 512
	applyChunkBytes   = 1 << 20
)

// applyRecords applies RecPut / RecDelete records to the shard in order: per
// chunk one reservation, ONE grouped transaction, one settle. It is the only
// way state that did not arrive as a request gets into a shard — startup
// replay, a follower's REPLICATE stream and handoff/bootstrap ENTRIES (through
// redoApplier), snapshot restore, the wipe before an install.
// Nothing is logged: the records come from a log or a capture. On error the
// chunks before the failing one stay applied.
func (sh *shard) applyRecords(ctx context.Context, th *votm.Thread, recs []wal.Record) error {
	var fx effects
	for len(recs) > 0 {
		n, size := 0, 0
		for n < len(recs) && n < applyChunkRecords && (n == 0 || size+len(recs[n].Value) <= applyChunkBytes) {
			size += len(recs[n].Value)
			n++
		}
		chunk := recs[:n]
		recs = recs[n:]
		for _, r := range chunk {
			if r.Kind == wal.RecPut {
				fx.want(sh, r.Key, len(r.Value))
			}
		}
		err := sh.reserve(&fx)
		if err == nil {
			err = sh.view.Atomic(ctx, th, func(tx votm.Tx) error {
				fx.begin()
				si := 0
				for _, r := range chunk {
					switch r.Kind {
					case wal.RecPut:
						sh.put(tx, &fx, si, r.Key, r.Value)
						si++
					case wal.RecDelete:
						sh.del(tx, &fx, r.Key)
					}
				}
				return nil
			})
		}
		sh.settle(&fx, err == nil)
		if err != nil {
			return err
		}
		sh.groups.Add(1)
		sh.groupOps.Add(uint64(n))
	}
	return nil
}

// --- the ATOMIC interpreter ------------------------------------------------

// multiBatch is the one implementation of ATOMIC batch semantics over the
// kernel's verbs: a batch's subs, its routing plan and its verdict. Both
// executors run it — the group (group.go) hands it its own shard as the
// single participant with the view transaction's handle and effects, the
// round (round.go) the quiesced union with their exclusive handles and one
// effects per participant. err carries the batch's own verdict, independent
// of its group- or round-mates'; results are valid only when err is nil. The
// scratch survives recycling through the server's free list, so steady-state
// execution allocates nothing here.
type multiBatch struct {
	subs []wire.Sub
	// parts is the batch's own participant set in canonical order and owner
	// each sub's participant index (atomicPlan, run once by the connection
	// reader). A one-participant batch is queued on that shard's ring and
	// runs in its group; the round remaps owner onto its union.
	parts   []*shard
	owner   []int
	results []wire.SubResult
	err     error

	slots  []int          // per sub: its slot in its owner's effects; -1 for a sub that links nothing
	effLen map[uint64]int // validation scratch: value length per key, -1 = absent
}

// writes reports whether any sub mutates state.
func (b *multiBatch) writes() bool {
	for _, sub := range b.subs {
		if sub.Kind != wire.SubGet {
			return true
		}
	}
	return false
}

// shardCompare is the canonical participant order: wire shard id. Plans list
// their participants in it, and the round coordinator — the only goroutine
// that ever holds more than one shard — quiesces and wal-locks its union in
// it.
func shardCompare(a, b *shard) int { return a.id - b.id }

// atomicPlan resolves an ATOMIC batch's participant shards in canonical order
// into b.parts, and each sub's index into that order into b.owner (owner[i]
// is the participant owning subs[i]). It is the one place an ATOMIC's keys
// are routed (conn.dispatch). A new participant is inserted at its sorted
// position, so planning needs no scratch and allocates nothing once the
// batch's slices are warm.
func (s *Server) atomicPlan(b *multiBatch) {
	parts, owner := b.parts[:0], b.owner[:0]
	for _, sub := range b.subs {
		sh := s.shards[s.Shard(sub.Key)]
		idx, found := slices.BinarySearchFunc(parts, sh, shardCompare)
		if !found {
			parts = slices.Insert(parts, idx, sh)
			for i, o := range owner {
				if o >= idx {
					owner[i] = o + 1
				}
			}
		}
		owner = append(owner, idx)
	}
	b.parts, b.owner = parts, owner
}

// want asks each owner's effects for the slot a SubPut or SubAdd may link;
// the executor reserves them all at once, per participant.
func (b *multiBatch) want(parts []*shard, fxs []effects) {
	b.slots = b.slots[:0]
	for i, sub := range b.subs {
		si, pi := -1, b.owner[i]
		switch sub.Kind {
		case wire.SubPut:
			si = fxs[pi].want(parts[pi], sub.Key, len(sub.Value))
		case wire.SubAdd:
			si = fxs[pi].want(parts[pi], sub.Key, 8)
		}
		b.slots = append(b.slots, si)
	}
}

// exec runs the batch against its participants' transaction handles. A
// strictly read-only validation pass comes first: at Q == 1 and in a
// quiesced round the body runs in lock mode with no rollback, so the batch
// must be known-good before its first write. A non-nil error therefore means
// the batch wrote nothing and recorded nothing in fxs.
func (b *multiBatch) exec(parts []*shard, txs []votm.Tx, fxs []effects) error {
	// effLen tracks the length each key's value would have at this point of
	// the batch. A key routes to exactly one participant, so it can stay
	// keyed by key alone.
	if b.effLen == nil {
		b.effLen = make(map[uint64]int, len(b.subs))
	}
	clear(b.effLen)
	for i, sub := range b.subs {
		switch sub.Kind {
		case wire.SubPut:
			b.effLen[sub.Key] = len(sub.Value)
		case wire.SubDelete:
			b.effLen[sub.Key] = -1
		case wire.SubAdd:
			n, seen := b.effLen[sub.Key]
			if !seen {
				n = parts[b.owner[i]].valueLen(txs[b.owner[i]], sub.Key)
			}
			if n != -1 && n != 8 {
				return errBadAdd
			}
			b.effLen[sub.Key] = 8
		}
	}

	b.results = b.results[:0]
	for i, sub := range b.subs {
		pi := b.owner[i]
		p, tx, fx := parts[pi], txs[pi], &fxs[pi]
		r := wire.SubResult{Kind: sub.Kind, Status: wire.StatusOK}
		found := true
		switch sub.Kind {
		case wire.SubGet:
			r.Value, found = p.get(tx, sub.Key, nil)
		case wire.SubPut:
			p.put(tx, fx, b.slots[i], sub.Key, sub.Value)
		case wire.SubDelete:
			found = p.del(tx, fx, sub.Key)
		case wire.SubAdd:
			r.Sum = p.add(tx, fx, b.slots[i], sub.Key, sub.Delta)
		}
		if !found {
			r.Status = wire.StatusNotFound
		}
		b.results = append(b.results, r)
	}
	return nil
}
