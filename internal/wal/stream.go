// WAL streaming: the pieces replication is built from. A shard leader tees
// appended batch frames (Options.Tee) to its followers; a follower appends
// the received frames verbatim with AppendFrames — so leader and follower
// logs are byte-identical — and applies their records via DecodeFrames. A
// handoff install wipes the target's log with Reset before the snapshot
// ships.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrFrameGap is returned by AppendFrames when a frame's sequence does not
// extend the log: the sender and receiver disagree on the stream position
// and the receiver must report its NextSeq so the sender can re-sync.
var ErrFrameGap = errors.New("wal: frame sequence does not extend the log")

// DecodeFrames walks b — a concatenation of encoded batch frames, exactly
// as Options.Tee observes them — calling fn for every batch. Decoded record
// values borrow b for the duration of the call. It fails on the first
// short, corrupt or malformed frame; a replication payload is
// length-delimited and fully trusted only after its CRCs check out.
func DecodeFrames(b []byte, fn func(seq uint64, recs []Record) error) error {
	var recs []Record
	off := int64(0)
	for off < int64(len(b)) {
		seq, body, next, ok := nextBatch(b, off)
		if !ok {
			return fmt.Errorf("wal: corrupt frame at offset %d", off)
		}
		if _, ok := decodeBatch(body, &recs); !ok {
			return fmt.Errorf("wal: malformed batch body at offset %d", off)
		}
		if err := fn(seq, recs); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// AppendFrames appends pre-encoded batch frames verbatim: each frame is
// CRC-validated and must carry the log's next sequence number, keeping a
// follower's log byte-identical to its leader's. On ErrFrameGap nothing of
// the offending frame (or its successors) is written and the log stays
// healthy — the caller answers with NextSeq so the sender re-syncs. I/O
// failures are sticky exactly as in Append.
func (l *Log) AppendFrames(b []byte) (last uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed.Load():
		return 0, ErrClosed
	case !l.started:
		return 0, errors.New("wal: AppendFrames before Start")
	case l.failed.Load():
		return 0, ErrFailed
	}
	off := int64(0)
	for off < int64(len(b)) {
		seq, body, next, ok := nextBatch(b, off)
		if !ok {
			return last, fmt.Errorf("wal: corrupt frame at offset %d", off)
		}
		var recs []Record
		if _, ok := decodeBatch(body, &recs); !ok {
			return last, fmt.Errorf("wal: malformed batch body at offset %d", off)
		}
		if seq != l.nextSeq {
			return last, fmt.Errorf("%w: frame seq %d, log expects %d", ErrFrameGap, seq, l.nextSeq)
		}
		if l.segSize >= l.opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				l.failed.Store(true)
				return last, fmt.Errorf("wal: rotate: %w", err)
			}
		}
		frame := b[off:next]
		if err := l.writeFrame(frame); err != nil {
			l.failed.Store(true)
			return last, err
		}
		l.segSize += int64(len(frame))
		l.nextSeq++
		l.appended.Store(seq)
		if l.opts.Tee != nil {
			l.opts.Tee(seq, frame)
		}
		last = seq
		off = next
	}
	return last, nil
}

// Reset wipes the log and restarts it at nextSeq: the active segment is
// closed, every segment file is removed, and a fresh segment beginning at
// nextSeq is opened. Used by a handoff install, which replaces the target
// shard's entire history with the shipped snapshot. Only valid on a
// started, healthy log; the caller must serialize against appends.
func (l *Log) Reset(nextSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed.Load():
		return ErrClosed
	case !l.started:
		return errors.New("wal: Reset before Start")
	case l.failed.Load():
		return ErrFailed
	}
	if nextSeq == 0 {
		nextSeq = 1
	}
	// Hold the sync mutex across the file swap: a concurrent Sync (group
	// commit runs fsyncs outside the caller's append serialization) must
	// either finish against the old segment first or observe the swapped
	// state, never fsync a closing file.
	l.lockSync()
	defer l.syncMu.Unlock()
	if err := l.f.Close(); err != nil {
		l.failed.Store(true)
		return err
	}
	l.f = nil
	segs, err := l.segments()
	if err != nil {
		l.failed.Store(true)
		return err
	}
	for _, s := range segs {
		if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
			l.failed.Store(true)
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(nextSeq)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		l.failed.Store(true)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		_ = f.Close()
		l.failed.Store(true)
		return err
	}
	l.f, l.segSize, l.nextSeq = f, 0, nextSeq
	l.appended.Store(nextSeq - 1)
	l.synced = nextSeq - 1
	return nil
}
