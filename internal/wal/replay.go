// WAL replay: scan the segment chain in sequence order, apply every intact
// batch, stop cleanly at the first torn or corrupt record, and physically
// truncate the bad tail so the next incarnation of the log appends after
// the last batch that actually survived.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ReplayStats summarizes one recovery pass.
type ReplayStats struct {
	Segments       int    // segment files scanned
	Batches        uint64 // intact batches applied
	Records        uint64 // records inside applied batches
	SkippedBatches uint64 // intact batches below fromSeq (covered by the snapshot)
	TruncatedBytes int64  // torn/corrupt tail bytes removed
	LastSeq        uint64 // sequence of the last applied (or skipped) batch; 0 if none
}

// Replay scans the log's segments in order, calling apply for every intact
// batch whose sequence is >= fromSeq. Batches below fromSeq (already
// captured by a snapshot) are validated and skipped. The scan stops at the
// first short frame, CRC mismatch, malformed body, or sequence
// discontinuity; the offending tail is truncated — and any later segments
// deleted — so subsequent appends extend the intact prefix. A non-nil
// error from apply aborts the replay and is returned as-is.
//
// Replay must run before Start.
func (l *Log) Replay(fromSeq uint64, apply func(seq uint64, recs []Record) error) (ReplayStats, error) {
	var st ReplayStats
	l.mu.Lock()
	started := l.started
	l.mu.Unlock()
	if started {
		return st, fmt.Errorf("wal: Replay after Start")
	}

	segs, err := l.segments()
	if err != nil {
		return st, err
	}
	var (
		expect  uint64 // next expected seq; 0 = not yet pinned
		recs    []Record
		corrupt bool
	)
	for i, seg := range segs {
		path := filepath.Join(l.dir, seg.name)
		if corrupt {
			// Everything after a truncation point is unreachable history
			// (it can only exist if a previous recovery was interrupted):
			// drop it so the intact prefix is the whole log.
			st.TruncatedBytes += fileSize(path)
			if err := os.Remove(path); err != nil {
				return st, err
			}
			continue
		}
		if expect != 0 && seg.start != expect {
			// A gap between segments: the chain is broken here.
			corrupt = true
			st.TruncatedBytes += fileSize(path)
			if err := os.Remove(path); err != nil {
				return st, err
			}
			continue
		}
		st.Segments++
		good, size, err := l.replaySegment(path, seg.start, fromSeq, &expect, &recs, &st, apply)
		if err != nil {
			return st, err
		}
		if good < size {
			corrupt = true
			st.TruncatedBytes += size - good
			if good == 0 && i > 0 {
				// Nothing intact in this segment: remove it entirely rather
				// than leaving an empty file shadowing the name space.
				if err := os.Remove(path); err != nil {
					return st, err
				}
			} else if err := os.Truncate(path, good); err != nil {
				return st, err
			}
		}
	}
	if corrupt {
		if err := syncDir(l.dir); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replaySegment walks one segment file, applying batches and returning the
// byte offset of the end of the last intact batch plus the file size.
func (l *Log) replaySegment(path string, start, fromSeq uint64, expect *uint64,
	recs *[]Record, st *ReplayStats, apply func(uint64, []Record) error) (good, size int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	size = int64(len(b))
	if *expect == 0 {
		*expect = start
	}
	off := int64(0)
	for {
		seq, body, next, ok := nextBatch(b, off)
		if !ok {
			return off, size, nil // short or corrupt frame: stop here
		}
		if seq != *expect {
			return off, size, nil // discontinuity: treat as corruption
		}
		n, ok := decodeBatch(body, recs)
		if !ok {
			return off, size, nil // CRC passed but body malformed: stop
		}
		st.LastSeq = seq
		if seq >= fromSeq {
			st.Batches++
			st.Records += uint64(n)
			if apply != nil {
				if err := apply(seq, *recs); err != nil {
					return off, size, err
				}
			}
		} else {
			st.SkippedBatches++
		}
		*expect = seq + 1
		off = next
	}
}

// nextBatch frames the batch at off: it validates the length prefix and CRC
// and returns the body plus the offset one past the batch.
func nextBatch(b []byte, off int64) (seq uint64, body []byte, next int64, ok bool) {
	if off+batchHdrLen > int64(len(b)) {
		return 0, nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(b[off:]))
	crc := binary.LittleEndian.Uint32(b[off+4:])
	if n < 12 || n > MaxBatchBody || off+batchHdrLen+n > int64(len(b)) {
		return 0, nil, 0, false
	}
	body = b[off+batchHdrLen : off+batchHdrLen+n]
	if crc32.Checksum(body, castagnoli) != crc {
		return 0, nil, 0, false
	}
	return binary.LittleEndian.Uint64(body), body, off + batchHdrLen + n, true
}

// decodeBatch parses a validated body into *recs (reusing its capacity).
func decodeBatch(body []byte, recs *[]Record) (n int, ok bool) {
	*recs = (*recs)[:0]
	count := int(binary.LittleEndian.Uint32(body[8:]))
	p := body[12:]
	for i := 0; i < count; i++ {
		if len(p) < 9 {
			return 0, false
		}
		r := Record{Kind: RecordKind(p[0]), Key: binary.LittleEndian.Uint64(p[1:])}
		p = p[9:]
		switch r.Kind {
		case RecPut, RecPrepare:
			if len(p) < 4 {
				return 0, false
			}
			vlen := int(binary.LittleEndian.Uint32(p))
			p = p[4:]
			if vlen > len(p) {
				return 0, false
			}
			r.Value = p[:vlen:vlen]
			p = p[vlen:]
		case RecDelete, RecCommit, RecAbort:
		default:
			return 0, false
		}
		*recs = append(*recs, r)
	}
	if len(p) != 0 {
		return 0, false
	}
	return count, true
}

// fileSize returns a file's size, 0 on error (the file is being removed).
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
