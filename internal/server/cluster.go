// The cluster seam. votmd's cluster plane (internal/cluster) sits behind one
// interface, Cluster, set as Config.Cluster; this package imports nothing of
// it. Every call the server makes into the plane is a Cluster method, and the
// plane reaches a shard only through the *Shard handle: this file is all that
// cluster mode can do to a shard. Without a plane the cluster opcodes are
// refused, and the hot path meets the seam only in nil checks (conn.plan, the
// flusher, the WAL tee).
package server

import (
	"context"
	"errors"
	"sync/atomic"

	"votm"
	"votm/internal/wal"
	"votm/wire"
)

// Cluster is the cluster plane as the server sees it.
type Cluster interface {
	// Start joins the cluster once the workers run; shards[i] is wire shard i.
	Start(shards []*Shard) error
	// Gate decides every request but PING and STATS on the connection reader,
	// before validation.
	Gate(req *wire.Request, resp *wire.Response) Verdict
	// Serve answers a request Gate sent off the reader: a map watch's long poll.
	Serve(req *wire.Request, resp *wire.Response)
	// Stream runs a REPLICATE or HANDOFF request on shard req.Shard's worker,
	// whose thread th is, and answers it in resp. A nonzero seq holds the
	// answer until the shard's log is flushed through seq.
	Stream(th *votm.Thread, req *wire.Request, resp *wire.Response) (seq uint64)
	// Tee hands the frame appended at seq to shard id's log to its followers,
	// under the WAL lock and the log's mutex: it must not block. It runs before
	// Start too, when recovery logs the decisions of rounds a crash left open.
	Tee(id int, seq uint64, frame []byte)
	// WaitReplicated holds shard id's flush through seq until its followers
	// acknowledged seq or missed their deadline.
	WaitReplicated(id int, seq uint64)
	// StopControl ends the control plane as a drain begins; StopSenders
	// retires the replication senders once nothing appends.
	StopControl()
	StopSenders()
	// Stats fills wire shard id's three cluster STATS fields.
	Stats(id int, st *wire.ShardStats)
}

// Verdict is Cluster.Gate's decision on a request.
type Verdict uint8

const (
	GatePass     Verdict = iota // not the plane's to decide: dispatch as usual
	GateAnswered                // answered in resp: reply inline
	GateStream                  // run it on shard req.Shard's worker (Stream)
	GateServe                   // run Serve off the reader, then reply
)

// tee is shard id's WAL tee: the plane's, or none.
func (s *Server) tee(id int) func(uint64, []byte) {
	if m := s.cfg.Cluster; m != nil {
		return func(seq uint64, frame []byte) { m.Tee(id, seq, frame) }
	}
	return nil
}

// Shard is the plane's handle on a wire shard's one serving sub-shard (a
// cluster never splits). Methods marked "WAL lock" run between Lock/Unlock.
type Shard struct {
	s  *Server
	sh *shard
}

// Lock and Unlock take and drop the shard's WAL lock, held by every write.
func (h *Shard) Lock()   { h.sh.walMu.Lock() }
func (h *Shard) Unlock() { h.sh.walMu.Unlock() }

// NextSeq is the sequence the shard's next log append gets.
func (h *Shard) NextSeq() uint64 { return h.sh.log.NextSeq() }

// ReadOnly reports whether the shard lost its WAL.
func (h *Shard) ReadOnly() bool { return h.sh.readOnly.Load() }

// Fault flips the shard read-only after a WAL failure.
func (h *Shard) Fault(err error) { h.s.noteShardWALFault(h.sh, err) }

// Moving is the handoff gate: while set, dispatch answers BUSY and every writer
// refuses under the WAL lock, so nothing commits behind a later capture.
func (h *Shard) Moving() *atomic.Bool { return &h.sh.moving }

// AppendFrames appends a leader's WAL frames verbatim and applies the ones
// taken through the redo applier (WAL lock). A frame gap keeps the prefix
// before it and is no error; last is the last sequence appended (0: none). A
// failure that leaves the log or memory behind flips the shard read-only.
func (h *Shard) AppendFrames(th *votm.Thread, frames []byte) (last uint64, err error) {
	sh := h.sh
	last, err = sh.log.AppendFrames(frames)
	gap := errors.Is(err, wal.ErrFrameGap)
	if err != nil && !gap {
		if sh.log.Failed() {
			h.Fault(err)
		}
		return 0, err
	}
	if last == 0 {
		return 0, nil
	}
	err = wal.DecodeFrames(frames, func(seq uint64, recs []wal.Record) error {
		if seq > last {
			return errStopApply
		}
		return sh.redo.apply(context.Background(), th, seq, recs)
	})
	if err != nil && !errors.Is(err, errStopApply) {
		// The log holds records memory could not apply: recovery replays the
		// log and heals the divergence.
		h.Fault(err)
		return 0, err
	}
	sh.walAppends.Add(1)
	if !gap {
		sh.walBytes.Add(uint64(len(frames)))
	}
	return last, nil
}

// errStopApply ends a DecodeFrames walk at a gapped batch's appended prefix.
var errStopApply = errors.New("stop apply")

// Capture walks the shard's state at the log sequence it matches
// (captureShardState); atLock runs under the WAL lock before the walk.
func (h *Shard) Capture(atLock func()) ([]wal.Entry, uint64, error) {
	th := h.s.rt.RegisterThread()
	defer th.Release()
	return h.s.captureShardState(h.sh, th, atLock)
}

// Redo feeds records through the shard's redo applier (WAL lock).
func (h *Shard) Redo(th *votm.Thread, recs []wal.Record) error {
	return h.sh.redo.apply(context.Background(), th, 0, recs)
}

// CommitHeld commits, until nothing is held, what a promoted follower holds:
// its leader died before a round's annotation streamed (overlapped rounds hold
// a later prepare in the first one's suffix). The leader acknowledged held
// records only after the round's flush succeeded, so committing loses nothing
// acknowledged; the annotations make the log self-contained.
func (h *Shard) CommitHeld() {
	sh, a := h.sh, &h.sh.redo
	sh.walMu.Lock()
	defer sh.walMu.Unlock()
	if a.xid == 0 {
		return
	}
	th := h.s.rt.RegisterThread()
	defer th.Release()
	for a.xid != 0 {
		if _, err := a.decide(context.Background(), th, wal.RecCommit); err != nil {
			h.Fault(err)
			return
		}
	}
}

// Clear wipes the shard for a snapshot install (WAL lock): a held prepare,
// every key, old snapshots, and the log — reset to start at seq+1, the first
// append after the captured state.
func (h *Shard) Clear(th *votm.Thread, seq uint64) error {
	sh := h.sh
	sh.redo.reset()
	sh.owed.Store(0)
	ctx := context.Background()
	var dels []wal.Record
	err := sh.view.AtomicRead(ctx, th, func(tx votm.Tx) error {
		dels = dels[:0]
		sh.idx.ForEach(tx, func(key, val uint64) { dels = append(dels, wal.Record{Kind: wal.RecDelete, Key: key}) })
		return nil
	})
	if err == nil {
		err = sh.applyRecords(ctx, th, dels)
	}
	if err == nil {
		err = sh.log.Reset(seq + 1)
	}
	if err != nil {
		return err
	}
	sh.snapSeq.Store(seq)
	// Pre-install snapshots describe the wiped lineage; a crash before the
	// install's own snapshot must find none of them.
	return wal.PruneSnapshots(sh.dataDir, seq)
}

// Snapshot writes the shard's state as its snapshot: an install's durability
// baseline.
func (h *Shard) Snapshot(th *votm.Thread) error {
	_, err := h.s.snapshotShard(h.sh, th)
	return err
}
