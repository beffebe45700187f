// Package wal implements votmd's per-shard write-ahead log: an append-only
// sequence of CRC-checked record batches, one batch per executed transaction
// group, with segment rotation, snapshot files, and a replayer that
// reconstructs a shard's state after a crash.
//
// # Durability model
//
// The log is logical redo: each batch carries the post-images (PUT key/value
// and DELETE key records) of one committed group transaction, stamped with a
// shard-local sequence number. Append order equals commit order — the server
// serializes write-group execution and append under one per-shard mutex — so
// replaying batches in sequence order reproduces the exact committed state.
//
// Appending and flushing are split so fsyncs can be shared: Append writes
// the batch (one buffered encode, one write), Sync makes a sequence number
// durable. Concurrent groups whose appends land while another group's fsync
// is in flight are covered by the next fsync — classic group-commit
// piggybacking, at most one fsync per transaction group and usually fewer.
//
// A batch frame is
//
//	u32 bodyLen | u32 crc32c(body) | body
//	body = u64 seq | u32 count | count × record
//	record = u8 kind | u64 key | (RecPut, RecPrepare: u32 vlen | vlen bytes)
//
// little-endian throughout. Torn tails — a crash mid-write — are detected by
// the length/CRC pair: replay stops at the first short or corrupt frame,
// reports the truncated byte count, and physically truncates the tail so the
// next incarnation appends after the last intact batch.
//
// All I/O funnels through an optional fault hook (faultinject.DiskHook) so
// chaos tests can inject short writes and fsync failures; with a nil hook
// the instrumented branches are never taken.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"votm/internal/faultinject"
)

// RecordKind identifies one logical redo record.
type RecordKind uint8

const (
	// RecPut sets a key to a value (post-image).
	RecPut RecordKind = 1
	// RecDelete removes a key.
	RecDelete RecordKind = 2

	// RecPrepare is one shard's share of a cross-shard ATOMIC round: Key
	// carries the round's transaction ID (xid), Value (AppendPrepareValue)
	// the round's participant list — followed by the lists of the rounds it
	// was built on while they were in doubt — and this shard's redo records.
	// The round is committed iff every listed participant's log is durable
	// through its listed sequence. Until its decision is known, replay holds
	// the prepare and every record behind it: they apply at the PREPARE's
	// position.
	RecPrepare RecordKind = 3
	// RecCommit annotates xid = Key, and every round before it, as committed
	// (rounds settle in xid order): replay applies the held prepare, then the
	// records held behind it, in log order. It is never the decision itself —
	// it rides in front of the shard's next batch once the round settled — it
	// only saves the next recovery the cross-log check.
	RecCommit RecordKind = 4
	// RecAbort annotates xid = Key as aborted: replay drops the held prepare
	// AND the records held behind it (they were computed on top of effects
	// that never became durable). Written when a prepare append fails midway
	// and by recovery when it resolves a dangling prepare.
	RecAbort RecordKind = 5
)

// Record is one logical redo record of a batch. Value is meaningful for
// RecPut and RecPrepare only and borrows the caller's buffer until Append
// returns (the replayer hands out sub-slices of its read buffer, valid for
// one apply call).
type Record struct {
	Kind  RecordKind
	Key   uint64
	Value []byte
}

// castagnoli is the CRC32C table shared by batches, snapshots and markers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	batchHdrLen = 8 // u32 len + u32 crc
	// MaxBatchBody is the sanity bound on one batch body: Append refuses a
	// larger batch and replay treats a larger length as corruption. Exported
	// so a caller that combines many transactions into one batch (the
	// server's cross-shard round) can budget against it.
	MaxBatchBody = 1 << 26 // 64 MiB

	segPrefix = "wal-"
	segSuffix = ".seg"
	cleanFile = "CLEAN"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrFailed is the sticky error returned after an append or sync I/O
// failure: the log refuses further writes so the caller can fail over to a
// read-only regime instead of silently losing durability.
var ErrFailed = errors.New("wal: log failed; shard must go read-only")

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold: a segment that reaches this
	// size is fsynced, closed, and succeeded by a fresh one. Default 64 MiB.
	SegmentBytes int64
	// Fault, when non-nil, is invoked at every append and fsync site; a
	// non-nil return injects an I/O failure there. Test-only.
	Fault faultinject.DiskHook

	// Tee, when non-nil, observes every appended batch frame (the exact
	// encoded bytes, length/CRC header included) after its write succeeds.
	// It is called with the append mutex held and the frame buffer is
	// reused by the next append — implementations must copy what they keep
	// and return quickly. The replication sender uses this to fan batches
	// out to followers without re-reading the segment files.
	Tee func(seq uint64, frame []byte)
}

// Log is one shard's write-ahead log. Append callers must be externally
// serialized in commit order (the server's per-shard WAL mutex); Sync may
// be called concurrently from any goroutine.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards the append side: file, sizes, rotation
	f        *os.File
	segSize  int64
	nextSeq  uint64
	buf      []byte // retained batch-encode scratch
	started  bool
	appended atomic.Uint64 // last appended seq, read by Sync

	// The flush side. One Sync caller at a time is the flusher: it marks
	// flushing under syncMu, flushes with the mutex RELEASED, and broadcasts;
	// the others wait on syncCond and return the moment synced covers them,
	// never queueing behind a flush they do not need.
	syncMu   sync.Mutex
	syncCond sync.Cond
	flushing bool
	synced   uint64 // last seq known durable

	fsyncs atomic.Uint64 // segment fsyncs issued (piggybacking keeps this ≤ appends)
	failed atomic.Bool
	closed atomic.Bool
}

// Open prepares dir (creating it if needed) and returns an idle Log.
// Call Replay to recover existing content, then Start to begin appending.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.syncCond.L = &l.syncMu
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// segName returns the segment file name for a starting sequence number.
func segName(startSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, startSeq, segSuffix)
}

// parseSegName extracts the starting sequence from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segments lists the log's segment files sorted by starting sequence.
func (l *Log) segments() ([]segInfo, error) {
	return listSegments(l.dir)
}

type segInfo struct {
	name  string
	start uint64
}

func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if start, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segInfo{name: e.Name(), start: start})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// syncDir flushes directory metadata (segment creation, renames, removals).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Start opens a fresh segment beginning at nextSeq and enables Append.
// Call it after Replay has recovered (and truncated) existing content.
func (l *Log) Start(nextSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	if l.started {
		return errors.New("wal: Start called twice")
	}
	if nextSeq == 0 {
		nextSeq = 1
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(nextSeq)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		_ = f.Close()
		return err
	}
	l.f, l.segSize, l.nextSeq, l.started = f, 0, nextSeq, true
	l.appended.Store(nextSeq - 1)
	l.syncMu.Lock()
	l.synced = nextSeq - 1
	l.syncMu.Unlock()
	return nil
}

// appendBatch encodes recs with the given seq into dst.
func appendBatch(dst []byte, seq uint64, recs []Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc, patched below
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = append(dst, byte(r.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		if r.Kind == RecPut || r.Kind == RecPrepare {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Value)))
			dst = append(dst, r.Value...)
		}
	}
	body := dst[start+batchHdrLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// Append writes recs as the next batch — one encode, one write, no fsync
// (call Sync for durability). It returns the batch's sequence number and
// the bytes written. After an I/O failure the log is failed: the torn or
// missing tail stays exactly as the fault left it and every later Append
// and Sync returns ErrFailed.
func (l *Log) Append(recs []Record) (seq uint64, n int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed.Load():
		return 0, 0, ErrClosed
	case !l.started:
		return 0, 0, errors.New("wal: Append before Start")
	case l.failed.Load():
		return 0, 0, ErrFailed
	}

	// Rotate before the batch so a batch never spans segments.
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failed.Store(true)
			return 0, 0, fmt.Errorf("wal: rotate: %w", err)
		}
	}

	seq = l.nextSeq
	l.buf = appendBatch(l.buf[:0], seq, recs)
	if len(l.buf) > batchHdrLen+MaxBatchBody {
		return 0, 0, fmt.Errorf("wal: batch of %d bytes exceeds the body bound", len(l.buf))
	}
	if err := l.writeFrame(l.buf); err != nil {
		l.failed.Store(true)
		return 0, 0, err
	}
	l.segSize += int64(len(l.buf))
	l.nextSeq++
	l.appended.Store(seq)
	if l.opts.Tee != nil {
		l.opts.Tee(seq, l.buf)
	}
	return seq, len(l.buf), nil
}

// writeFrame writes one encoded batch, threading the fault hook's
// before/mid sites. With no hook it is a single Write call.
func (l *Log) writeFrame(frame []byte) error {
	hook := l.opts.Fault
	if hook == nil {
		_, err := l.f.Write(frame)
		return err
	}
	if err := hook(faultinject.DiskAppend); err != nil {
		return err
	}
	half := len(frame) / 2
	if _, err := l.f.Write(frame[:half]); err != nil {
		return err
	}
	if err := hook(faultinject.DiskAppendMid); err != nil {
		return err // torn: a prefix of the batch is on disk
	}
	_, err := l.f.Write(frame[half:])
	return err
}

// rotateLocked seals the active segment (fsync + close) and opens the next
// one. Called with l.mu held. It holds syncMu throughout, taken with no flush
// in flight: swapping the file beneath a concurrent Sync would hand fdatasync
// a closed descriptor. (Lock order l.mu → syncMu; Sync never takes l.mu.)
func (l *Log) rotateLocked() error {
	l.lockSync()
	defer l.syncMu.Unlock()
	if err := l.syncFile(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.nextSeq)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		_ = f.Close()
		return err
	}
	// Everything appended so far is durable (the seal fsynced it).
	l.synced = l.nextSeq - 1
	l.f, l.segSize = f, 0
	return nil
}

// syncFile flushes the active segment through the fault hook (fdatasync on
// Linux — see datasync).
func (l *Log) syncFile() error {
	if hook := l.opts.Fault; hook != nil {
		if err := hook(faultinject.DiskSync); err != nil {
			return err
		}
	}
	l.fsyncs.Add(1)
	return datasync(l.f)
}

// Fsyncs returns the number of segment fsyncs issued so far.
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// lockSync takes syncMu with no flush in flight: whoever swaps or closes the
// active segment must not pull it from under a flusher.
func (l *Log) lockSync() {
	l.syncMu.Lock()
	for l.flushing {
		l.syncCond.Wait()
	}
}

// Sync blocks until batch seq is durable. Concurrent callers share fsyncs:
// the flusher flushes everything appended so far, and every caller that
// flush covers returns with it — the group-commit piggyback that keeps
// fsyncs at or below one per transaction group. A caller it does not cover
// flushes next.
func (l *Log) Sync(seq uint64) error {
	l.syncMu.Lock()
	for l.flushing && l.synced < seq {
		l.syncCond.Wait()
	}
	var err error
	switch {
	case l.synced >= seq:
	case l.failed.Load():
		err = ErrFailed
	case l.closed.Load():
		err = ErrClosed
	default:
		l.flushing = true
		target := l.appended.Load()
		l.syncMu.Unlock()
		err = l.syncFile()
		l.syncMu.Lock()
		l.flushing = false
		if err != nil {
			l.failed.Store(true)
		} else {
			l.synced = max(l.synced, target)
		}
		l.syncCond.Broadcast()
	}
	l.syncMu.Unlock()
	return err
}

// Failed reports whether the log hit an I/O failure and refuses writes.
func (l *Log) Failed() bool { return l.failed.Load() }

// Prune removes segments whose every batch is at or below seq (covered by
// a snapshot). The active segment is never removed.
func (l *Log) Prune(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := l.segments()
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(segs); i++ {
		// Segment i holds batches [start_i, start_{i+1}); removable when the
		// whole range is covered.
		if segs[i+1].start <= seq+1 {
			if err := os.Remove(filepath.Join(l.dir, segs[i].name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// Close seals the log: fsync (best effort on a failed log) and close the
// active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Swap(true) {
		return nil
	}
	if l.f == nil {
		return nil
	}
	l.lockSync()
	defer l.syncMu.Unlock()
	var err error
	if !l.failed.Load() {
		err = l.syncFile()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// --- clean-shutdown marker ---------------------------------------------

// MarkClean records a clean shutdown at seq: every segment is removed (the
// caller has snapshotted through seq) and a CRC-stamped marker file is
// written, letting the next startup skip tail replay entirely. Call after
// Close on a healthy log.
func MarkClean(dir string, seq uint64) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(filepath.Join(dir, s.name)); err != nil {
			return err
		}
	}
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], seq)
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[:8], castagnoli))
	tmp := filepath.Join(dir, cleanFile+".tmp")
	if err := writeFileSync(tmp, b[:]); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, cleanFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// ReadCleanMarker returns the clean-shutdown sequence if a valid marker
// exists.
func ReadCleanMarker(dir string) (seq uint64, ok bool) {
	b, err := os.ReadFile(filepath.Join(dir, cleanFile))
	if err != nil || len(b) != 12 {
		return 0, false
	}
	if crc32.Checksum(b[:8], castagnoli) != binary.LittleEndian.Uint32(b[8:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[:8]), true
}

// RemoveCleanMarker deletes the marker (the log is about to become dirty).
// Missing markers are fine.
func RemoveCleanMarker(dir string) error {
	err := os.Remove(filepath.Join(dir, cleanFile))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(dir)
}

// --- prepare-record payload ----------------------------------------------

// Participant names one shard's share of a cross-shard round: the prepare it
// logged sits at Seq of shard Shard's log. A round is committed iff every
// participant's log is durable through its Seq (the all-prepared rule).
type Participant struct {
	Shard uint32
	Seq   uint64
}

// prepareMark opens every RecPrepare value, then a version byte: together
// they tell a value of another layout, or a corrupt one, from a prepare.
const (
	prepareMark    = 0xFFFFFFFF
	prepareVersion = 1
)

// ErrPrepareLayout refuses a RecPrepare value DecodePrepareValue cannot
// parse. It names the one layout a prepare has.
var ErrPrepareLayout = errors.New("wal: prepare record not in the layout u32 0xFFFFFFFF | u8 version 1 | participants | records")

// AppendRecords encodes recs as a nested record list: u32 count followed by
// the batch record encoding. Only RecPut and RecDelete may nest.
func AppendRecords(dst []byte, recs []Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = append(dst, byte(r.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		if r.Kind == RecPut {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Value)))
			dst = append(dst, r.Value...)
		}
	}
	return dst
}

// DecodeRecords parses a nested record list into *recs (reusing its
// capacity). It returns false on a malformed payload or a nested kind that
// is not RecPut/RecDelete. Decoded values borrow the input buffer.
func DecodeRecords(value []byte, recs *[]Record) bool {
	*recs = (*recs)[:0]
	if len(value) < 4 {
		return false
	}
	count := int(binary.LittleEndian.Uint32(value))
	p := value[4:]
	for i := 0; i < count; i++ {
		if len(p) < 9 {
			return false
		}
		r := Record{Kind: RecordKind(p[0]), Key: binary.LittleEndian.Uint64(p[1:])}
		p = p[9:]
		switch r.Kind {
		case RecPut:
			if len(p) < 4 {
				return false
			}
			vlen := int(binary.LittleEndian.Uint32(p))
			p = p[4:]
			if vlen > len(p) {
				return false
			}
			r.Value = p[:vlen:vlen]
			p = p[vlen:]
		case RecDelete:
		default:
			return false
		}
		*recs = append(*recs, r)
	}
	return len(p) == 0
}

// AppendPrepareValue encodes a RecPrepare value: the round's participant
// list (every shard that logs a prepare for this xid, with the sequence it
// lands at; then, the same for every round this one depends on) and recs,
// this shard's share of the round's redo records in execution order:
//
//	u32 prepareMark | u8 version | u32 n | n × (u32 shard | u64 seq) | records
func AppendPrepareValue(dst []byte, parts []Participant, recs []Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, prepareMark)
	dst = append(dst, prepareVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = binary.LittleEndian.AppendUint32(dst, p.Shard)
		dst = binary.LittleEndian.AppendUint64(dst, p.Seq)
	}
	return AppendRecords(dst, recs)
}

// DecodePrepareValue parses a RecPrepare value into *parts and *recs
// (reusing their capacity). It returns false on any value not in the
// AppendPrepareValue layout, including one that lists no participants.
// Decoded values borrow the input buffer.
func DecodePrepareValue(value []byte, parts *[]Participant, recs *[]Record) bool {
	*parts = (*parts)[:0]
	if len(value) < 9 || binary.LittleEndian.Uint32(value) != prepareMark || value[4] != prepareVersion {
		return false
	}
	n := int(binary.LittleEndian.Uint32(value[5:]))
	p := value[9:]
	if n == 0 || n > len(p)/12 {
		return false
	}
	for ; n > 0; n-- {
		*parts = append(*parts, Participant{Shard: binary.LittleEndian.Uint32(p), Seq: binary.LittleEndian.Uint64(p[4:])})
		p = p[12:]
	}
	return DecodeRecords(p, recs)
}

// writeFileSync writes path atomically enough for a marker: create, write,
// fsync, close.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
