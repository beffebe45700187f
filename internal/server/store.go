// Shard store: each shard is one VOTM view holding a ds.SkipList from key
// to a value-block reference, with the value bytes packed through enc. The
// ordered index is what makes wire-level SCAN a per-shard Seek/Next merge
// (see scan.go); point ops pay a modest constant over the old hash map for
// it. The ops below follow the repo's memory discipline — blocks and index
// nodes are allocated outside transactions, linked inside, and freed only
// after the transaction commits — so retried bodies stay side-effect free.
package server

import (
	"bytes"
	"context"
	"errors"
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

// shard is one serving sub-shard: a view (own STM engine + RAC controller),
// its ordered key index, the bounded request queue feeding the shard's
// workers, and a live-key counter kept outside the heap so STATS never needs
// a transaction. A wire-level shard starts as exactly one sub-shard;
// automatic splitting (split.go) adds more, each owning the keys whose
// subMix matches its routeBits rule.
type shard struct {
	id    int // wire-level shard index (the routing group)
	view  *votm.View
	idx   *ds.SkipList
	queue *ringQueue
	// ctl drives the shard's effective group size, flush-lag bound and
	// admission threshold (adapt.go); in static mode it just pins BatchMax.
	ctl  *shardController
	keys atomic.Int64
	// queueHW is the lifetime high-water mark of the queue depth observed
	// at dispatch. Because it never decays, STATS also serves a windowed
	// variant (queueHWCur/queueHWPrev, rotated every hwWindow): operators
	// and the adaptive controller see *current* pressure, not a startup
	// burst from an hour ago.
	queueHW      atomic.Uint64
	queueHWCur   atomic.Uint64
	queueHWPrev  atomic.Uint64
	queueHWStamp atomic.Int64 // window index of queueHWCur

	// Adaptive-batching rejection meters: admissionRejects counts BUSY
	// answers from the controller's latency-budget gate, ringFull the ones
	// from a queue actually being full: this shard's ring, or the server's
	// round queue when this shard is the first participant of a refused
	// cross-shard ATOMIC (a refused SCAN page counts on the least sub-shard).
	admissionRejects atomic.Uint64
	ringFull         atomic.Uint64
	// routeBits is the packed routing rule (packRoute): low 32 bits the
	// prefix, high bits the depth. Published atomically by splitShard while
	// the view is quiescent; {0, 0} matches every key.
	routeBits atomic.Uint64

	// Durability state (durability.go); all zero when the server runs
	// memory-only. walMu serializes write-group execution with the WAL
	// append so commit order equals log order; the fsync happens outside it,
	// overlapping the next group's execution. log is nil in snapshot-only
	// mode (snapshots need only dataDir and snapSeq).
	dataDir string
	log     *wal.Log
	walMu   sync.Mutex
	// doubt is the xid of the newest cross-shard round that logged a prepare
	// here (guarded by walMu): until Server.awaitRound passes it, whatever
	// logs behind the prepare must not answer. owed is the xid of a round
	// found durable whose RecCommit annotation this log still lacks: the next
	// batch appended here carries it (appendWAL); a crash forgets it and
	// recovery decides that round by the all-prepared rule.
	doubt uint64
	owed  atomic.Uint64
	// readOnly flips on after a WAL append or fsync failure: the in-memory
	// state may be ahead of the durable log, so further writes are refused
	// (StatusTxFault) rather than widening the divergence.
	readOnly   atomic.Bool
	walAppends atomic.Uint64
	walBytes   atomic.Uint64
	replayed   atomic.Uint64 // redo records replayed at startup
	snapSeq    atomic.Uint64 // WAL seq covered by the last snapshot
	lastSnap   atomic.Int64  // unix seconds of the last snapshot; 0 = never

	// Cross-shard ATOMIC meters (round.go runRound): committed
	// multi-participant groups this shard took part in, the (task,
	// participant) shares its prepare records carried, and prepares that
	// ended in an abort (a mid-protocol WAL fault, or recovery's verdict).
	xsGroups        atomic.Uint64
	xsPrepares      atomic.Uint64
	xsPrepareAborts atomic.Uint64

	// Scan meters (scan.go): pages served, counted on the least sub-shard,
	// and entries this shard contributed to any page's merge.
	scans       atomic.Uint64
	scannedKeys atomic.Uint64
}

// hwWindow is the rotation period of the windowed queue high-water mark.
const hwWindow = 15 * time.Second

// noteDepth records the queue depth seen right after an enqueue, in both the
// lifetime and the current-window high-water marks. win is the caller's
// window index — the dispatch paths pass the server's coarse ticker-driven
// clock (Server.hwWin) rather than reading time.Now here: this runs once
// per enqueued request, and a clock read costs a measurable slice of the
// whole datapath (it showed up as several percent on the loopback
// benchmark).
func (sh *shard) noteDepth(depth uint64, win int64) {
	maxInto(&sh.queueHW, depth)
	sh.rotateHW(win)
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
	sh.rotateHW(time.Now().UnixNano() / int64(hwWindow))
	return max(sh.queueHWCur.Load(), sh.queueHWPrev.Load())
}

// shardGroup is one wire-level shard: the copy-on-write set of sub-shards
// serving it. Splits are serialized by splitMu; the splits counter feeds
// STATS Repartitions.
type shardGroup struct {
	id      int
	subs    atomic.Pointer[[]*shard]
	splitMu sync.Mutex
	splits  atomic.Uint64
}

// task is one dispatched request: planned by its connection reader (conn.go),
// executed by a shard worker or the round coordinator, answered on the
// originating connection. batch is an ATOMIC's interpreter state with the
// reader's routing plan attached; nil for every other op.
type task struct {
	req   *wire.Request
	c     *conn
	batch *multiBatch
}

// growQuantum is the minimum Brk step when a shard's heap fills up.
const growQuantum = 1 << 14 // 16 Ki words = 128 KiB

// alloc reserves words from the shard's view, growing the view when the
// allocator is exhausted (the serving layer has no a-priori size bound).
func (sh *shard) alloc(words int) (votm.Addr, error) {
	for attempt := 0; ; attempt++ {
		a, err := sh.view.Alloc(words)
		if err == nil || attempt == 3 || !errors.Is(err, memheap.ErrOutOfMemory) {
			return a, err
		}
		grow := words
		if grow < growQuantum {
			grow = growQuantum
		}
		if berr := sh.view.Brk(grow); berr != nil {
			return 0, berr
		}
	}
}

// allocBatch reserves one block per entry of sizes in a single allocator
// lock acquisition, appending to dst, growing the view when exhausted. The
// batch is all-or-nothing; callers fall back to per-op alloc to keep per-op
// failure granularity when it cannot be satisfied.
func (sh *shard) allocBatch(sizes []int, dst []votm.Addr) ([]votm.Addr, error) {
	for attempt := 0; ; attempt++ {
		out, err := sh.view.AllocBatch(sizes, dst)
		if err == nil || attempt == 3 || !errors.Is(err, memheap.ErrOutOfMemory) {
			return out, err
		}
		grow := 0
		for _, w := range sizes {
			grow += w
		}
		if grow < growQuantum {
			grow = growQuantum
		}
		if berr := sh.view.Brk(grow); berr != nil {
			return dst, berr
		}
	}
}

// errBadAdd aborts an ATOMIC batch whose SubAdd hit a non-8-byte value.
var errBadAdd = errors.New("server: ADD on a value that is not 8 bytes")

// errStaleRoute aborts an ATOMIC or a SCAN page whose ownership map changed
// between the reader's plan and execution (a concurrent split). Mapped to
// StatusBusy: nothing executed, the client's retry is planned afresh.
var errStaleRoute = errors.New("server: batch keys moved by a concurrent repartition")

// doGet returns the value stored under key, read in one read-only
// transaction (consistent length + payload snapshot).
func (sh *shard) doGet(ctx context.Context, th *votm.Thread, key uint64) ([]byte, bool, error) {
	var (
		val   []byte
		found bool
	)
	err := sh.view.AtomicRead(ctx, th, func(tx votm.Tx) error {
		val, found = nil, false
		if ref, ok := sh.idx.Get(tx, key); ok {
			val = enc.LoadBlob(tx, votm.Addr(ref))
			found = true
		}
		return nil
	})
	return val, found, err
}

// doPut sets key to val, reporting whether the key was created. The new
// value block and a spare map node are allocated up front; whichever of the
// old block / spare node the committed transaction displaced is freed after
// commit, and everything is released on failure.
func (sh *shard) doPut(ctx context.Context, th *votm.Thread, key uint64, val []byte) (bool, error) {
	block, err := sh.alloc(enc.BlobWords(len(val)))
	if err != nil {
		return false, err
	}
	node, err := sh.idx.NewNode(key)
	if err != nil {
		_ = sh.view.Free(block)
		return false, err
	}
	var (
		prev          uint64
		existed, used bool
	)
	err = sh.view.Atomic(ctx, th, func(tx votm.Tx) error {
		enc.StoreBlob(tx, block, val)
		prev, existed, used = sh.idx.Swap(tx, key, uint64(block), node)
		return nil
	})
	if err != nil {
		_ = sh.view.Free(block)
		_ = sh.idx.FreeNode(node)
		return false, err
	}
	if existed {
		_ = sh.view.Free(votm.Addr(prev))
	} else {
		sh.keys.Add(1)
	}
	if !used {
		_ = sh.idx.FreeNode(node)
	}
	return !existed, nil
}

// doDelete removes key, freeing its node and value block after commit.
func (sh *shard) doDelete(ctx context.Context, th *votm.Thread, key uint64) (bool, error) {
	var (
		valRef uint64
		node   ds.Ref
		found  bool
	)
	err := sh.view.Atomic(ctx, th, func(tx votm.Tx) error {
		valRef, node, found = 0, ds.NilRef, false
		ref, ok := sh.idx.Get(tx, key)
		if !ok {
			return nil
		}
		n, ok := sh.idx.Delete(tx, key)
		if !ok {
			return nil // unreachable: same transaction as the Get
		}
		valRef, node, found = ref, n, true
		return nil
	})
	if err != nil || !found {
		return false, err
	}
	_ = sh.idx.FreeNode(node)
	_ = sh.view.Free(votm.Addr(valRef))
	sh.keys.Add(-1)
	return true, nil
}

// casOutcome classifies a doCAS transaction.
type casOutcome int

const (
	casOK casOutcome = iota
	casMissing
	casMismatch
)

// doCAS replaces key's value with newVal iff its current bytes equal
// expect. On mismatch it returns the current value.
func (sh *shard) doCAS(ctx context.Context, th *votm.Thread, key uint64, expect, newVal []byte) (casOutcome, []byte, error) {
	block, err := sh.alloc(enc.BlobWords(len(newVal)))
	if err != nil {
		return casOK, nil, err
	}
	node, err := sh.idx.NewNode(key)
	if err != nil {
		_ = sh.view.Free(block)
		return casOK, nil, err
	}
	var (
		outcome casOutcome
		current []byte
		prev    uint64
		used    bool
	)
	err = sh.view.Atomic(ctx, th, func(tx votm.Tx) error {
		outcome, current, prev, used = casOK, nil, 0, false
		ref, ok := sh.idx.Get(tx, key)
		if !ok {
			outcome = casMissing
			return nil
		}
		cur := enc.LoadBlob(tx, votm.Addr(ref))
		if !bytes.Equal(cur, expect) {
			outcome, current = casMismatch, cur
			return nil
		}
		enc.StoreBlob(tx, block, newVal)
		var existed bool
		prev, existed, used = sh.idx.Swap(tx, key, uint64(block), node)
		_ = existed // necessarily true: the key was just read in this tx
		return nil
	})
	if err != nil || outcome != casOK {
		_ = sh.view.Free(block)
		_ = sh.idx.FreeNode(node)
		return outcome, current, err
	}
	_ = sh.view.Free(votm.Addr(prev))
	if !used {
		_ = sh.idx.FreeNode(node)
	}
	return casOK, nil, nil
}

// atomicResources are the blocks and nodes pre-allocated for one ATOMIC
// sub-operation (SubPut and SubAdd may need to link a fresh entry), and
// whether the executed attempt linked them.
type atomicResources struct {
	block               votm.Addr
	hasBlock            bool
	node                ds.Ref
	hasNode             bool
	usedBlock, usedNode bool
}

// partAddr is a block (value blob or index node — a node is a plain view
// block) displaced by a batch, freed on its owning participant after commit.
type partAddr struct {
	part int
	addr votm.Addr
}

// multiBatch is the one implementation of ATOMIC sub-op semantics: a
// batch's subs, its routing plan, and the attempt's commit-side effect
// lists. Both executors run it — the group (group.go) hands it its own shard
// as the single participant and the view transaction's handle, the round
// (round.go) the quiesced union and their exclusive handles — and because
// the effect lists are per batch, each batch settles its storage
// independently of its group- or round-mates' outcomes. err carries the batch's own verdict; results are
// valid only when err is nil. The scratch slices survive recycling through
// the server's free list, so steady-state execution allocates nothing here.
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

	res       []atomicResources
	effLen    map[uint64]int // validation scratch: value length per key, -1 = absent
	frees     []partAddr
	keysDelta []int64 // per participant
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

// alloc pre-allocates the blocks and nodes the batch may link, outside the
// transaction. On failure everything allocated so far is freed and the
// error is also left in b.err, so the executors skip the batch.
func (b *multiBatch) alloc(parts []*shard) error {
	b.res = append(b.res[:0], make([]atomicResources, len(b.subs))...)
	for i, sub := range b.subs {
		if sub.Kind != wire.SubPut && sub.Kind != wire.SubAdd {
			continue
		}
		p, r := parts[b.owner[i]], &b.res[i]
		words := enc.BlobWords(8)
		if sub.Kind == wire.SubPut {
			words = enc.BlobWords(len(sub.Value))
		}
		var err error
		if r.block, err = p.alloc(words); err == nil {
			r.hasBlock = true
			if r.node, err = p.idx.NewNode(sub.Key); err == nil {
				r.hasNode = true
			}
		}
		if err != nil {
			b.err = err
			b.settle(parts, false)
			return err
		}
	}
	return nil
}

// exec runs the batch against its participants' transaction handles. The
// route verdict comes first — repartitioning publishes under the owning
// view's exclusive section, so inside a transaction of every participant it
// holds for the whole execution — then a strictly read-only validation
// pass: at Q == 1 and in a quiesced round the body runs in lock mode with
// no rollback, so the batch must be known-good before its first write. A
// non-nil error therefore means the batch wrote nothing.
func (b *multiBatch) exec(s *Server, parts []*shard, txs []votm.Tx) error {
	for i, sub := range b.subs {
		if s.shards[s.Shard(sub.Key)].route(sub.Key) != parts[b.owner[i]] {
			return errStaleRoute
		}
	}
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
				n = -1
				pi := b.owner[i]
				if ref, ok := parts[pi].idx.Get(txs[pi], sub.Key); ok {
					n = int(txs[pi].Load(votm.Addr(ref)))
				}
			}
			if n != -1 && n != 8 {
				return errBadAdd
			}
			b.effLen[sub.Key] = 8
		}
	}

	// Write pass. The group's body may be re-executed after a conflict:
	// rebuild every commit-side effect list from scratch on each attempt.
	b.results, b.frees = b.results[:0], b.frees[:0]
	b.keysDelta = append(b.keysDelta[:0], make([]int64, len(parts))...)
	for i, sub := range b.subs {
		pi := b.owner[i]
		p, tx, res := parts[pi], txs[pi], &b.res[i]
		res.usedBlock, res.usedNode = false, false
		r := wire.SubResult{Kind: sub.Kind, Status: wire.StatusOK}
		switch sub.Kind {
		case wire.SubGet:
			if ref, ok := p.idx.Get(tx, sub.Key); ok {
				r.Value = enc.LoadBlob(tx, votm.Addr(ref))
			} else {
				r.Status = wire.StatusNotFound
			}
		case wire.SubPut:
			enc.StoreBlob(tx, res.block, sub.Value)
			prev, existed, used := p.idx.Swap(tx, sub.Key, uint64(res.block), res.node)
			res.usedBlock, res.usedNode = true, used
			if existed {
				b.frees = append(b.frees, partAddr{pi, votm.Addr(prev)})
			} else {
				b.keysDelta[pi]++
			}
		case wire.SubDelete:
			ref, ok := p.idx.Get(tx, sub.Key)
			if !ok {
				r.Status = wire.StatusNotFound
				break
			}
			node, _ := p.idx.Delete(tx, sub.Key)
			b.frees = append(b.frees, partAddr{pi, votm.Addr(ref)}, partAddr{pi, votm.Addr(node)})
			b.keysDelta[pi]--
		case wire.SubAdd:
			if ref, ok := p.idx.Get(tx, sub.Key); ok {
				base := votm.Addr(ref)
				if tx.Load(base) != 8 {
					return errBadAdd // unreachable: validated above
				}
				r.Sum = tx.Load(base+1) + sub.Delta
				tx.Store(base+1, r.Sum)
			} else {
				r.Sum = sub.Delta
				tx.Store(res.block, 8)
				tx.Store(res.block+1, r.Sum)
				_, _, used := p.idx.Swap(tx, sub.Key, uint64(res.block), res.node)
				res.usedBlock, res.usedNode = true, used
				b.keysDelta[pi]++
			}
		}
		b.results = append(b.results, r)
	}
	return nil
}

// settle releases the batch's storage once its transaction is over. A batch
// that committed (its executor did, and its own verdict is nil) frees the
// displaced blocks, the unlinked nodes and the pre-allocations the final
// attempt did not link, and publishes its key-count deltas; any other batch
// linked nothing and frees every pre-allocation. Idempotent: the lists are
// emptied, so the executors' failure paths may settle unconditionally.
func (b *multiBatch) settle(parts []*shard, committed bool) {
	committed = committed && b.err == nil
	for i := range b.res {
		p, r := parts[b.owner[i]], &b.res[i]
		if r.hasBlock && !(committed && r.usedBlock) {
			_ = p.view.Free(r.block)
		}
		if r.hasNode && !(committed && r.usedNode) {
			_ = p.idx.FreeNode(r.node)
		}
	}
	if committed {
		for _, f := range b.frees {
			_ = parts[f.part].view.Free(f.addr)
		}
		for pi, d := range b.keysDelta {
			parts[pi].keys.Add(d)
		}
	}
	b.res, b.frees, b.keysDelta = b.res[:0], b.frees[:0], b.keysDelta[:0]
}
