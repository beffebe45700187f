// Durability: per-shard write-ahead logging and snapshots (internal/wal)
// layered on the group-commit execution path. In "group" mode every
// committed write group appends one redo batch and is answered — by the
// shard's acknowledgement stage (group.go), never by a waiting worker — only
// once the log's flusher has flushed it and the cross-shard round it logged
// behind, if any (round.go), is settled; "snapshot-only" keeps just the
// periodic snapshots. Startup recovery loads the newest valid
// snapshot, replays the WAL tail through the one redo applier and decides an
// undecided round by the all-prepared rule; a clean-shutdown marker written
// by a graceful drain lets the next startup skip replay entirely. Snapshot
// and log reach memory as bounded groups through shard.applyRecords
// (store.go) — the reservation there grows the heap, so a shard restarts at
// whatever size it had reached.
package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"

	"votm"
	"votm/enc"
	"votm/internal/wal"
	"votm/wire"
)

// Durability modes for Config.Durability.
const (
	// DurabilityOff keeps the server memory-only (the default fast path).
	DurabilityOff = "off"
	// DurabilityGroup logs every write group to a per-shard WAL with one
	// append and at most one fsync per group; responses release only after
	// the group's durability point.
	DurabilityGroup = "group"
	// DurabilitySnapshotOnly writes periodic snapshots but no WAL: writes
	// since the last snapshot are lost on a crash.
	DurabilitySnapshotOnly = "snapshot-only"
)

// shardDataDir is shard id's durability directory under the data root.
func shardDataDir(dataDir string, id int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%04d", id))
}

// RecoveryStats summarizes one shard's startup recovery, logged by votmd.
type RecoveryStats struct {
	Shard          int
	SnapshotSeq    uint64 // WAL seq of the loaded snapshot (0 = none)
	SnapshotKeys   int    // entries restored from the snapshot
	Replayed       uint64 // redo records applied from the WAL tail (a prepare's counted when it commits)
	TruncatedBytes int64  // torn/corrupt tail bytes removed
	CleanStart     bool   // clean-shutdown marker found; tail replay skipped
	// ResolvedPrepares counts cross-shard prepares this shard's log left
	// undecided at the crash, decided (committed or aborted) at startup by
	// resolveCrossShard.
	ResolvedPrepares int
}

// crossRecovery is what startup replay leaves for resolveCrossShard: every
// shard's durable horizon — the newest sequence its snapshot or its valid
// log covers — and the appliers whose log ended inside a held suffix.
type crossRecovery struct {
	horizon  []uint64 // by shard id
	dangling []*redoApplier
}

// redoApplier applies one shard's log records to memory in log order: THE redo
// state machine, one per shard (shard.redo), run by startup replay and by a
// follower's REPLICATE stream alike. Replay order must equal memory order, and
// in memory a round's effects exist from its prepare on — the groups that
// logged behind it ran on top of them. So from a RecPrepare until its decision
// the applier holds the prepare's records and every record behind them (deep
// copies: the caller's buffer does not outlive the call), each with its batch's
// sequence; a commit applies the lot in order, RecAbort drops the lot — the
// suffix was computed on state that never became durable. A held suffix may
// contain the next round's prepare (rounds overlap, round.go): applying
// re-feeds the suffix batch by batch, that prepare starts a second hold at its
// own batch, and the same RecCommit{x} — a watermark — decides it too if it is
// x or older. A log that ends inside a held suffix leaves the applier dangling.
type redoApplier struct {
	sh    *shard
	xid   uint64            // the undecided prepare (0: nothing held)
	from  uint64            // sequence of the batch that carried it
	parts []wal.Participant // its participant list; empty in a legacy prepare
	held  []wal.Record      // its own records, then the suffix
	seqs  []uint64          // held[i]'s batch sequence
	own   int               // len of the prepare's own records in held
	dec   []wal.Record      // prepare-decoding scratch
	n     uint64            // redo records applied to memory so far
}

// decides reports whether r is the held prepare's decision: its own commit or
// abort record, or the commit of a later round (not for a legacy prepare,
// whose tasks were decided one by one, in no promised order).
func (a *redoApplier) decides(r wal.Record) bool {
	return (r.Kind == wal.RecCommit || r.Kind == wal.RecAbort) && r.Key == a.xid ||
		r.Kind == wal.RecCommit && r.Key > a.xid && len(a.parts) > 0
}

// apply feeds one batch (sequence seq) through the state machine. A run of
// data records with nothing held reaches memory as groups (shard.applyRecords).
func (a *redoApplier) apply(ctx context.Context, th *votm.Thread, seq uint64, recs []wal.Record) error {
	for i := 0; i < len(recs); i++ {
		r := recs[i]
		var err error
		switch {
		case a.xid != 0 && a.decides(r):
			held, seqs := a.held, a.seqs
			switch {
			case r.Kind == wal.RecCommit:
			case len(a.parts) == 0:
				// A legacy round gave every task its own xid and kept its
				// tasks independent: an abort drops that task alone.
				held, seqs = held[a.own:], seqs[a.own:]
			default:
				held = nil
			}
			a.reset()
			for lo, hi := 0, 0; lo < len(held) && err == nil; lo = hi {
				for hi = lo + 1; hi < len(held) && seqs[hi] == seqs[lo]; hi++ {
				}
				err = a.apply(ctx, th, seqs[lo], held[lo:hi])
			}
			if err == nil && a.xid != 0 && r.Kind == wal.RecCommit {
				i-- // the suffix started a second hold: the watermark may cover it too
			}
		case a.xid != 0:
			a.held, a.seqs = append(a.held, copyRecord(r)), append(a.seqs, seq)
		case isData(r):
			j := i + 1
			for j < len(recs) && isData(recs[j]) {
				j++
			}
			a.n += uint64(j - i)
			err = a.sh.applyRecords(ctx, th, recs[i:j])
			i = j - 1
		case r.Kind == wal.RecPrepare:
			if !wal.DecodePrepareValue(r.Value, &a.parts, &a.dec) {
				return fmt.Errorf("xid %d: malformed prepare record", r.Key)
			}
			a.xid, a.from, a.own = r.Key, seq, len(a.dec)
			for _, n := range a.dec {
				a.held, a.seqs = append(a.held, copyRecord(n)), append(a.seqs, seq)
			}
		} // a decision with nothing held: its prepare lies behind the snapshot
		if err != nil {
			return err
		}
	}
	return nil
}

// decide appends kind as the held prepare's decision to the shard's own log
// (the caller holds walMu, or runs before any worker) and applies it.
func (a *redoApplier) decide(ctx context.Context, th *votm.Thread, kind wal.RecordKind) (uint64, error) {
	dec := []wal.Record{{Kind: kind, Key: a.xid}}
	seq, err := appendWAL(a.sh, dec)
	if err == nil {
		err = a.apply(ctx, th, seq, dec)
	}
	return seq, err
}

// reset forgets whatever is held (a decision arrived, or the shard is wiped).
func (a *redoApplier) reset() {
	a.xid, a.held, a.seqs, a.own, a.parts = 0, nil, nil, 0, a.parts[:0]
}

// isData reports whether r carries a key's post-image (as opposed to a
// cross-shard protocol record).
func isData(r wal.Record) bool { return r.Kind == wal.RecPut || r.Kind == wal.RecDelete }

// copyRecord deep-copies a record out of a decode buffer.
func copyRecord(r wal.Record) wal.Record {
	if len(r.Value) > 0 {
		r.Value = append([]byte(nil), r.Value...)
	}
	return r
}

// initShardDurability recovers shard sh from its data directory and, in
// group mode, leaves sh.log started and ready to append. It runs during New,
// before any worker or connection exists, and applyRecords logs nothing, so
// no WAL interposition is needed. A log that ends with a cross-shard prepare
// undecided leaves its applier in cr for resolveCrossShard.
func (s *Server) initShardDurability(sh *shard, th *votm.Thread, cr *crossRecovery) (RecoveryStats, error) {
	st := RecoveryStats{Shard: sh.id}
	sh.dataDir = shardDataDir(s.cfg.DataDir, sh.id)
	ctx := context.Background()

	snapSeq, entries, haveSnap, err := wal.LoadNewestSnapshot(sh.dataDir)
	if err != nil {
		return st, fmt.Errorf("shard %d: load snapshot: %w", sh.id, err)
	}
	if haveSnap {
		recs := make([]wal.Record, len(entries))
		for i, e := range entries {
			recs[i] = wal.Record{Kind: wal.RecPut, Key: e.Key, Value: e.Value}
		}
		if err := sh.applyRecords(ctx, th, recs); err != nil {
			return st, fmt.Errorf("shard %d: restore snapshot: %w", sh.id, err)
		}
		sh.snapSeq.Store(snapSeq)
		sh.lastSnap.Store(time.Now().Unix())
		st.SnapshotSeq, st.SnapshotKeys = snapSeq, len(entries)
	}
	if s.cfg.Durability == DurabilitySnapshotOnly {
		return st, nil
	}

	// The tee feeds the cluster plane's replication senders (nil without one).
	log, err := wal.Open(sh.dataDir, wal.Options{Fault: s.cfg.DiskFaultHook, Tee: s.tee(sh.id)})
	if err != nil {
		return st, fmt.Errorf("shard %d: open wal: %w", sh.id, err)
	}
	nextSeq := snapSeq + 1

	if cleanSeq, ok := wal.ReadCleanMarker(sh.dataDir); ok {
		// A clean shutdown removed every segment after snapshotting through
		// cleanSeq: the snapshot IS the state, no tail to replay.
		st.CleanStart = true
		if cleanSeq+1 > nextSeq {
			nextSeq = cleanSeq + 1
		}
	} else {
		redo := &sh.redo
		rst, err := log.Replay(nextSeq, func(seq uint64, recs []wal.Record) error {
			return redo.apply(ctx, th, seq, recs)
		})
		if err != nil {
			return st, fmt.Errorf("shard %d: replay wal: %w", sh.id, err)
		}
		st.Replayed, st.TruncatedBytes = redo.n, rst.TruncatedBytes
		sh.replayed.Store(redo.n)
		if rst.LastSeq+1 > nextSeq {
			nextSeq = rst.LastSeq + 1
		}
		if redo.xid != 0 {
			cr.dangling = append(cr.dangling, redo)
		}
	}
	cr.horizon[sh.id] = nextSeq - 1
	// The log is about to become dirty again: drop the marker before the
	// first append so a crash between here and the next clean drain replays.
	if err := wal.RemoveCleanMarker(sh.dataDir); err != nil {
		return st, fmt.Errorf("shard %d: remove clean marker: %w", sh.id, err)
	}
	if err := log.Start(nextSeq); err != nil {
		return st, fmt.Errorf("shard %d: start wal: %w", sh.id, err)
	}
	sh.log = log
	return st, nil
}

// resolveCrossShard decides every round a crash left undecided in some log,
// by the all-prepared rule: the round is committed iff every participant its
// prepare lists has a durable horizon at or past its listed sequence — the
// condition the coordinator, and every group logged behind the prepare,
// waited for before answering anyone, so an abort voids nothing that was
// acknowledged. The list includes the rounds it was built on (round.go), so
// it aborts wherever one of those does. The verdict is appended (and flushed)
// as the log's own decision record and fed to the held applier like any
// replayed one: each log is self-contained from here on. That can start the
// next hold, so a log is decided until it holds nothing. A legacy prepare
// names no participants; the commit-record-in-another-log rule that decided
// it is gone with its binary. Runs after every shard replayed, before the
// workers start.
func (s *Server) resolveCrossShard(th *votm.Thread, cr *crossRecovery) error {
	ctx := context.Background()
	for _, a := range cr.dangling {
		for a.xid != 0 {
			sh, xid, held := a.sh, a.xid, len(a.held)
			if len(a.parts) == 0 {
				return fmt.Errorf("shard %d: cross-shard prepare %d was left undecided by an older votmd and names no participants: "+
					"start the votmd that wrote this data directory on it once (it resolves the prepare), shut it down cleanly, then start this one", sh.id, xid)
			}
			kind, verdict := wal.RecCommit, "committed"
			for _, p := range a.parts {
				if int(p.Shard) >= len(cr.horizon) || cr.horizon[p.Shard] < p.Seq {
					kind, verdict = wal.RecAbort, "aborted"
				}
			}
			seq, err := a.decide(ctx, th, kind)
			if err == nil {
				err = sh.log.Sync(seq)
			}
			if err != nil {
				return fmt.Errorf("shard %d: resolve prepare %d: %w", sh.id, xid, err)
			}
			if kind == wal.RecAbort {
				sh.xsPrepareAborts.Add(1)
			}
			s.recovery[sh.id].Replayed = a.n
			sh.replayed.Store(a.n)
			s.recovery[sh.id].ResolvedPrepares++
			s.logf("votmd: shard %d: cross-shard prepare %d %s at startup (%d records held)", sh.id, xid, verdict, held)
		}
	}
	return nil
}

// captureShardState walks one shard's full state as a read-only view
// transaction with walMu held, so the captured WAL sequence exactly matches
// the captured state (writes execute under walMu). Shared by snapshots,
// replication bootstraps and live handoffs — anything that needs a
// consistent (state, seq) pair, i.e. a durability claim: an in-doubt shard
// is waited out first (ackStage.awaitRound; the round's flush holds no mutex
// and its settling needs none of ours), and a follower
// still holding a prepare claims only the log below it. The lockFn hook runs
// while walMu is still held, before the walk; replication bootstraps use it
// to reset their frame buffer inside the same critical section.
func (s *Server) captureShardState(sh *shard, th *votm.Thread, lockFn func()) ([]wal.Entry, uint64, error) {
	var (
		entries []wal.Entry
		blobs   []byte
		seq     uint64
	)
	sh.walMu.Lock()
	if err := sh.ack.awaitRound(sh.doubt); err != nil {
		sh.walMu.Unlock()
		return nil, 0, fmt.Errorf("shard %d: in doubt after a failed cross-shard round: %w", sh.id, err)
	}
	if lockFn != nil {
		lockFn()
	}
	if sh.log != nil {
		seq = sh.log.NextSeq() - 1
		if sh.redo.xid != 0 {
			seq = sh.redo.from - 1 // a follower holding a prepare
		}
	} else {
		seq = sh.snapSeq.Load() + 1 // snapshot-only: a bare snapshot counter
	}
	err := sh.view.AtomicRead(context.Background(), th, func(tx votm.Tx) error {
		entries, blobs = entries[:0], blobs[:0]
		sh.idx.ForEach(tx, func(key, val uint64) {
			start := len(blobs)
			blobs = enc.AppendBlob(blobs, tx, votm.Addr(val))
			entries = append(entries, wal.Entry{Key: key, Value: blobs[start:len(blobs):len(blobs)]})
		})
		return nil
	})
	sh.walMu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return entries, seq, nil
}

// snapshotShard writes one shard's full state as a snapshot and prunes the
// log behind it; the file I/O happens after the captureShardState walk, off
// the mutex. Returns the entry count.
func (s *Server) snapshotShard(sh *shard, th *votm.Thread) (int, error) {
	entries, seq, err := s.captureShardState(sh, th, nil)
	if err != nil {
		return 0, err
	}
	if err := wal.WriteSnapshot(sh.dataDir, seq, entries); err != nil {
		return 0, err
	}
	sh.snapSeq.Store(seq)
	sh.lastSnap.Store(time.Now().Unix())
	if err := wal.PruneSnapshots(sh.dataDir, seq); err != nil {
		return 0, err
	}
	if sh.log != nil {
		if err := sh.log.Prune(seq); err != nil {
			return 0, err
		}
	}
	return len(entries), nil
}

// snapshotLoop periodically snapshots every shard until stopped.
func (s *Server) snapshotLoop() {
	defer s.snapshotWG.Done()
	th := s.rt.RegisterThread()
	defer th.Release()
	ticker := time.NewTicker(s.cfg.SnapshotEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.snapshotStop:
			return
		case <-ticker.C:
		}
		for _, sh := range s.appendSubShards(nil) {
			if sh.readOnly.Load() {
				continue // state may be ahead of the log; keep the old snapshot
			}
			if _, err := s.snapshotShard(sh, th); err != nil {
				s.logf("votmd: shard %d: snapshot: %v", sh.id, err)
			}
		}
	}
}

// closeShardDurability finishes a shard's durability at graceful drain:
// write a final snapshot, seal the log, and mark it cleanly closed so the
// next startup skips tail replay. A read-only shard (WAL failure) keeps its
// last-good snapshot and stays dirty: its memory may be ahead of the log,
// and recovery must replay to the last durable point, not trust a snapshot
// of diverged state.
func (s *Server) closeShardDurability(sh *shard, th *votm.Thread) {
	if sh.readOnly.Load() {
		if sh.log != nil {
			_ = sh.log.Close()
		}
		return
	}
	n, err := s.snapshotShard(sh, th)
	if err != nil {
		s.logf("votmd: shard %d: final snapshot: %v", sh.id, err)
		if sh.log != nil {
			_ = sh.log.Close()
		}
		return
	}
	if sh.log == nil {
		return // snapshot-only: the snapshot is the whole story
	}
	seq := sh.snapSeq.Load()
	if err := sh.log.Close(); err != nil {
		s.logf("votmd: shard %d: close wal: %v", sh.id, err)
		return
	}
	if err := wal.MarkClean(sh.dataDir, seq); err != nil {
		s.logf("votmd: shard %d: mark clean: %v", sh.id, err)
		return
	}
	s.logf("votmd: shard %d: clean close at seq %d (%d keys snapshotted)", sh.id, seq, n)
}

// --- redo-record building ------------------------------------------------

// appendGroupRecords appends the redo records of a committed group: the
// post-images of every member that actually mutated state, in member order.
// valBuf backs the ATOMIC members' synthesized SubAdd values; both slices
// are scratch owned by the caller and valid until the next group.
func appendGroupRecords(recs []wal.Record, valBuf []byte, ops []groupOp) ([]wal.Record, []byte) {
	for i := range ops {
		op := &ops[i]
		if b := op.t.batch; b != nil {
			if b.err == nil {
				recs, valBuf = appendAtomicRecords(recs, valBuf, b, 0)
			}
			continue
		}
		if op.t.resp.Status != wire.StatusOK {
			continue // NOT_FOUND / CAS_MISMATCH changed nothing
		}
		switch op.t.req.Op {
		case wire.OpPut, wire.OpCAS:
			recs = append(recs, wal.Record{Kind: wal.RecPut, Key: op.t.req.Key, Value: op.t.req.Value})
		case wire.OpDelete:
			recs = append(recs, wal.Record{Kind: wal.RecDelete, Key: op.t.req.Key})
		}
	}
	return recs, valBuf
}

// appendAtomicRecords appends the redo records of the subs participant part
// owns in a committed ATOMIC batch. SubAdd's post-image is the committed
// Sum, serialized into valBuf (a grown valBuf leaves the earlier records'
// values intact in the old array).
func appendAtomicRecords(recs []wal.Record, valBuf []byte, b *multiBatch, part int) ([]wal.Record, []byte) {
	for i, sub := range b.subs {
		if b.owner[i] != part {
			continue
		}
		switch sub.Kind {
		case wire.SubPut:
			recs = append(recs, wal.Record{Kind: wal.RecPut, Key: sub.Key, Value: sub.Value})
		case wire.SubDelete:
			if b.results[i].Status == wire.StatusOK {
				recs = append(recs, wal.Record{Kind: wal.RecDelete, Key: sub.Key})
			}
		case wire.SubAdd:
			start := len(valBuf)
			valBuf = binary.LittleEndian.AppendUint64(valBuf, b.results[i].Sum)
			recs = append(recs, wal.Record{Kind: wal.RecPut, Key: sub.Key, Value: valBuf[start:len(valBuf):len(valBuf)]})
		}
	}
	return recs, valBuf
}
