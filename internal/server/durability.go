// Durability: per-shard write-ahead logging and snapshots (internal/wal)
// layered on the group-commit execution path. In "group" mode every
// committed write group appends one redo batch and is answered only after
// its fsync (piggybacked across workers — see wal.Log.Sync); "snapshot-only"
// drops the log and keeps just the periodic snapshots. Startup recovery
// loads the newest valid snapshot and replays the WAL tail; a clean-shutdown
// marker written by a graceful drain lets the next startup skip replay
// entirely.
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
	Replayed       uint64 // redo records replayed from the WAL tail
	TruncatedBytes int64  // torn/corrupt tail bytes removed
	CleanStart     bool   // clean-shutdown marker found; tail replay skipped
	// ResolvedPrepares counts cross-shard prepares this shard's log left
	// undecided at the crash, decided (committed or aborted) at startup by
	// resolveCrossShard.
	ResolvedPrepares int
}

// crossRecovery accumulates the cross-shard 2PC evidence found during
// per-shard replay, resolved by resolveCrossShard once every log is read.
type crossRecovery struct {
	committed map[uint64]bool // xid -> some log holds its commit record
	dangling  []danglingPrepare
}

// danglingPrepare is a prepare record with no decision in its own log: the
// crash landed inside the 2PC window and the verdict lives (or doesn't) in
// the other participants' logs.
type danglingPrepare struct {
	sh   *shard
	xid  uint64
	recs []wal.Record // deep-copied: replay buffers don't outlive the scan
}

// copyRecords deep-copies records out of a replay buffer (valid only during
// the apply callback) for deferred application.
func copyRecords(recs []wal.Record) []wal.Record {
	out := make([]wal.Record, len(recs))
	for i, r := range recs {
		out[i] = wal.Record{Kind: r.Kind, Key: r.Key}
		if len(r.Value) > 0 {
			out[i].Value = append([]byte(nil), r.Value...)
		}
	}
	return out
}

// applyRecords applies redo records through the ordinary do* helpers
// (recovery runs WAL-free: nothing re-logs).
func applyRecords(ctx context.Context, sh *shard, th *votm.Thread, recs []wal.Record) error {
	for _, r := range recs {
		switch r.Kind {
		case wal.RecPut:
			if _, err := sh.doPut(ctx, th, r.Key, r.Value); err != nil {
				return err
			}
		case wal.RecDelete:
			if _, err := sh.doDelete(ctx, th, r.Key); err != nil {
				return err
			}
		}
	}
	return nil
}

// initShardDurability recovers shard sh from its data directory and, in
// group mode, leaves sh.log started and ready to append. It runs during New,
// before any worker or connection exists, so it may apply state through the
// ordinary do* helpers without WAL interposition. Cross-shard 2PC records
// are accumulated into cr: prepares decided within this log (commit/abort
// record follows) are settled here; undecided ones are stashed for
// resolveCrossShard.
func (s *Server) initShardDurability(sh *shard, th *votm.Thread, cr *crossRecovery) (RecoveryStats, error) {
	st := RecoveryStats{Shard: sh.id}
	sh.dataDir = shardDataDir(s.cfg.DataDir, sh.id)
	ctx := context.Background()

	snapSeq, entries, haveSnap, err := wal.LoadNewestSnapshot(sh.dataDir)
	if err != nil {
		return st, fmt.Errorf("shard %d: load snapshot: %w", sh.id, err)
	}
	if haveSnap {
		for _, e := range entries {
			if _, err := sh.doPut(ctx, th, e.Key, e.Value); err != nil {
				return st, fmt.Errorf("shard %d: restore snapshot key %d: %w", sh.id, e.Key, err)
			}
		}
		sh.snapSeq.Store(snapSeq)
		sh.lastSnap.Store(time.Now().Unix())
		st.SnapshotSeq, st.SnapshotKeys = snapSeq, len(entries)
	}
	if s.cfg.Durability == DurabilitySnapshotOnly {
		return st, nil
	}

	log, err := wal.Open(sh.dataDir, wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		Fault:        s.cfg.DiskFaultHook,
		// The tee feeds the cluster replication senders (replication.go).
		// s.cluster is assigned before any worker starts appending and stays
		// nil outside cluster mode, where the indirection is a nil check.
		Tee: func(seq uint64, frame []byte) {
			if cn := s.cluster; cn != nil {
				cn.tee(sh.id, seq, frame)
			}
		},
	})
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
		// pending stashes prepares until their decision record arrives in
		// this log; order keeps the stash deterministic for resolution.
		pending := make(map[uint64][]wal.Record)
		var order []uint64
		rst, err := log.Replay(nextSeq, func(seq uint64, recs []wal.Record) error {
			for _, r := range recs {
				switch r.Kind {
				case wal.RecPut:
					if _, err := sh.doPut(ctx, th, r.Key, r.Value); err != nil {
						return err
					}
				case wal.RecDelete:
					if _, err := sh.doDelete(ctx, th, r.Key); err != nil {
						return err
					}
				case wal.RecPrepare:
					var nested []wal.Record
					if !wal.DecodePrepareValue(r.Value, &nested) {
						return fmt.Errorf("xid %d: malformed prepare record", r.Key)
					}
					if _, ok := pending[r.Key]; !ok {
						order = append(order, r.Key)
					}
					pending[r.Key] = copyRecords(nested)
				case wal.RecCommit:
					cr.committed[r.Key] = true
					if nested, ok := pending[r.Key]; ok {
						if err := applyRecords(ctx, sh, th, nested); err != nil {
							return err
						}
						delete(pending, r.Key)
					}
				case wal.RecAbort:
					delete(pending, r.Key)
				}
			}
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("shard %d: replay wal: %w", sh.id, err)
		}
		st.Replayed, st.TruncatedBytes = rst.Records, rst.TruncatedBytes
		sh.replayed.Store(rst.Records)
		if rst.LastSeq+1 > nextSeq {
			nextSeq = rst.LastSeq + 1
		}
		for _, xid := range order {
			if nested, ok := pending[xid]; ok {
				cr.dangling = append(cr.dangling, danglingPrepare{sh: sh, xid: xid, recs: nested})
			}
		}
	}
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

// resolveCrossShard decides every prepare left undecided by a crash inside
// the 2PC window: a cross-shard group is committed iff ANY participant's
// log holds its commit record (phase 1 made every prepare durable before
// the first commit record could exist, so the surviving logs agree).
// Committed prepares are applied and a commit record appended to the
// shard's own log; the rest get an abort record — either way each log
// becomes self-contained and the next recovery needs no cross-log evidence
// for the xid. Runs after every shard replayed, before the workers start.
func (s *Server) resolveCrossShard(th *votm.Thread, cr *crossRecovery) error {
	ctx := context.Background()
	for _, d := range cr.dangling {
		kind, verdict := wal.RecAbort, "aborted"
		if cr.committed[d.xid] {
			kind, verdict = wal.RecCommit, "committed"
			if err := applyRecords(ctx, d.sh, th, d.recs); err != nil {
				return fmt.Errorf("shard %d: apply recovered prepare %d: %w", d.sh.id, d.xid, err)
			}
		}
		seq, n, err := d.sh.log.Append([]wal.Record{{Kind: kind, Key: d.xid}})
		if err != nil {
			return fmt.Errorf("shard %d: resolve prepare %d: %w", d.sh.id, d.xid, err)
		}
		if err := d.sh.log.Sync(seq); err != nil {
			return fmt.Errorf("shard %d: sync resolution of prepare %d: %w", d.sh.id, d.xid, err)
		}
		d.sh.walAppends.Add(1)
		d.sh.walBytes.Add(uint64(n))
		if kind == wal.RecCommit {
			d.sh.replayed.Add(uint64(len(d.recs)))
			s.recovery[d.sh.id].Replayed += uint64(len(d.recs))
		} else {
			d.sh.xsPrepareAborts.Add(1)
		}
		s.recovery[d.sh.id].ResolvedPrepares++
		s.logf("votmd: shard %d: cross-shard prepare %d %s at startup (%d records)",
			d.sh.id, d.xid, verdict, len(d.recs))
	}
	return nil
}

// captureShardState walks one shard's full state as a read-only view
// transaction with walMu held, so the captured WAL sequence exactly matches
// the captured state (writes execute under walMu). Shared by snapshots,
// replication bootstraps and live handoffs — anything that needs a
// consistent (state, seq) pair. The lockFn hook runs while walMu is still
// held, before the walk; replication bootstraps use it to reset their frame
// buffer inside the same critical section (see replication.go).
func (s *Server) captureShardState(sh *shard, th *votm.Thread, lockFn func()) ([]wal.Entry, uint64, error) {
	var (
		entries []wal.Entry
		blobs   []byte
		seq     uint64
	)
	sh.walMu.Lock()
	if lockFn != nil {
		lockFn()
	}
	if sh.log != nil {
		seq = sh.log.NextSeq() - 1
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
		for _, sh := range s.allSubShards() {
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
		if op.skip {
			continue
		}
		if b := op.batch; b != nil {
			if b.err == nil {
				recs, valBuf = appendAtomicRecords(recs, valBuf, b, 0)
			}
			continue
		}
		if op.resp.Status != wire.StatusOK {
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
