package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"votm/internal/faultinject"
)

// openStarted returns a Log opened on dir and started at seq 1.
func openStarted(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Start(1); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return l
}

// collectReplay replays the log from fromSeq into a map, asserting batches
// arrive in sequence order.
func collectReplay(t *testing.T, dir string, fromSeq uint64, opts Options) (map[uint64][]byte, ReplayStats) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open for replay: %v", err)
	}
	state := make(map[uint64][]byte)
	last := uint64(0)
	st, err := l.Replay(fromSeq, func(seq uint64, recs []Record) error {
		if last != 0 && seq != last+1 {
			t.Fatalf("replay out of order: %d after %d", seq, last)
		}
		last = seq
		for _, r := range recs {
			switch r.Kind {
			case RecPut:
				state[r.Key] = append([]byte(nil), r.Value...)
			case RecDelete:
				delete(state, r.Key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return state, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openStarted(t, dir, Options{})
	want := make(map[uint64][]byte)
	for i := 0; i < 100; i++ {
		var recs []Record
		for j := 0; j < 1+i%5; j++ {
			k := uint64(i*10 + j)
			if j == 2 {
				recs = append(recs, Record{Kind: RecDelete, Key: k - 1})
				delete(want, k-1)
				continue
			}
			v := []byte(fmt.Sprintf("value-%d-%d", i, j))
			recs = append(recs, Record{Kind: RecPut, Key: k, Value: v})
			want[k] = v
		}
		seq, n, err := l.Append(recs)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append seq = %d, want %d", seq, i+1)
		}
		if n <= batchHdrLen {
			t.Fatalf("Append wrote %d bytes", n)
		}
	}
	if err := l.Sync(100); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, st := collectReplay(t, dir, 1, Options{})
	if st.Batches != 100 || st.Records == 0 || st.TruncatedBytes != 0 || st.LastSeq != 100 {
		t.Fatalf("ReplayStats = %+v", st)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %d: got %q want %q", k, got[k], v)
		}
	}
}

func TestSyncIdempotentAndPiggyback(t *testing.T) {
	dir := t.TempDir()
	l := openStarted(t, dir, Options{})
	for i := 0; i < 8; i++ {
		if _, _, err := l.Append([]Record{{Kind: RecPut, Key: uint64(i), Value: []byte("x")}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// One Sync at the tail covers every lower sequence; later Syncs of
	// covered sequences are free.
	if err := l.Sync(8); err != nil {
		t.Fatalf("Sync(8): %v", err)
	}
	for s := uint64(1); s <= 8; s++ {
		if err := l.Sync(s); err != nil {
			t.Fatalf("Sync(%d) after tail sync: %v", s, err)
		}
	}
	// Concurrent appends + syncs must be race-free (run under -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = l.Sync(l.appended.Load())
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, _, err := l.Append([]Record{{Kind: RecPut, Key: uint64(100 + i), Value: []byte("y")}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSyncCoveredWaiterSkipsNextFlush pins the piggyback's shape: a caller
// the flush in flight covers returns when that flush does — it never queues
// behind the flush an uncovered caller takes next.
func TestSyncCoveredWaiterSkipsNextFlush(t *testing.T) {
	entered, release := make(chan struct{}, 4), make(chan struct{})
	l := openStarted(t, t.TempDir(), Options{Fault: func(op faultinject.DiskOp) error {
		if op == faultinject.DiskSync {
			entered <- struct{}{}
			<-release
		}
		return nil
	}})
	put := func() uint64 {
		seq, _, err := l.Append([]Record{{Kind: RecPut, Key: 1, Value: []byte("x")}})
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		return seq
	}
	first, second := put(), put()
	done := make(chan uint64, 3)
	syncTo := func(seq uint64) {
		if err := l.Sync(seq); err != nil {
			t.Errorf("Sync(%d): %v", seq, err)
		}
		done <- seq
	}
	go syncTo(second) // the flusher: covers both
	<-entered
	third := put() // appended behind the flush in flight
	go syncTo(first)
	go syncTo(third)
	time.Sleep(10 * time.Millisecond) // let both park behind the flusher
	release <- struct{}{}
	<-entered // the uncovered caller flushes next, and is held there
	for i := 0; i < 2; i++ {
		select {
		case seq := <-done:
			if seq == third {
				t.Fatal("the uncovered Sync returned without its flush")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Sync the finished flush covers is stuck behind the next one")
		}
	}
	release <- struct{}{}
	if seq := <-done; seq != third {
		t.Fatalf("last Sync to return was %d, want %d", seq, third)
	}
	if n := l.Fsyncs(); n != 2 {
		t.Errorf("%d fsyncs for three Syncs, want 2", n)
	}
	go func() { <-entered; release <- struct{}{} }() // Close flushes once more
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPrepareValueRoundTrip covers both shapes a RecPrepare value takes: the
// participant-listing one this package writes, and the legacy bare record
// list, which decodes with no participants.
func TestPrepareValueRoundTrip(t *testing.T) {
	recs := []Record{{Kind: RecPut, Key: 7, Value: []byte("seven")}, {Kind: RecDelete, Key: 8}, {Kind: RecPut, Key: 9}}
	parts := []Participant{{Shard: 0, Seq: 41}, {Shard: 3, Seq: 1 << 40}}
	var (
		gotParts []Participant
		got      []Record
	)
	check := func(value []byte, wantParts []Participant) {
		t.Helper()
		if !DecodePrepareValue(value, &gotParts, &got) {
			t.Fatalf("DecodePrepareValue rejected %x", value)
		}
		if !reflect.DeepEqual(gotParts, wantParts) {
			t.Errorf("participants %v, want %v", gotParts, wantParts)
		}
		if len(got) != len(recs) {
			t.Fatalf("%d records, want %d", len(got), len(recs))
		}
		for i, r := range recs {
			if got[i].Kind != r.Kind || got[i].Key != r.Key || !bytes.Equal(got[i].Value, r.Value) {
				t.Errorf("record %d: %+v, want %+v", i, got[i], r)
			}
		}
	}
	value := AppendPrepareValue(nil, parts, recs)
	check(value, parts)
	// A bare record list has no mark: it is not a prepare.
	if DecodePrepareValue(AppendRecords(nil, recs), &gotParts, &got) {
		t.Error("an unmarked record list decoded as a prepare")
	}
	for cut := 1; cut < len(value); cut++ {
		if DecodePrepareValue(value[:cut], &gotParts, &got) {
			t.Errorf("a value cut to %d of %d bytes decoded", cut, len(value))
		}
	}
	if DecodePrepareValue(AppendPrepareValue(nil, nil, recs), &gotParts, &got) {
		t.Error("a marked prepare without participants decoded")
	}
	if DecodeRecords(AppendRecords(nil, []Record{{Kind: RecPrepare, Key: 1}}), &got) {
		t.Error("a nested prepare decoded")
	}
}

// TestReplayApplyErrorTruncatesNothing: an error from apply — the server's
// refusal of a prepare it cannot decode — stops Replay and comes back as-is,
// with the log untouched: not the refused batch, not the batches behind it,
// not even a torn tail past them is cut.
func TestReplayApplyErrorTruncatesNothing(t *testing.T) {
	dir := t.TempDir()
	l := openStarted(t, dir, Options{})
	bare := Record{Kind: RecPrepare, Key: 9, Value: AppendRecords(nil, []Record{{Kind: RecPut, Key: 1, Value: []byte("v")}})}
	for _, recs := range [][]Record{{{Kind: RecPut, Key: 1, Value: []byte("a")}}, {bare}, {{Kind: RecCommit, Key: 9}}} {
		if _, _, err := l.Append(recs); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{7, 0, 0}); err != nil { // a torn frame header
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var parts []Participant
	var nested []Record
	var applied []uint64
	_, err = mustOpen(t, dir).Replay(1, func(seq uint64, recs []Record) error {
		applied = append(applied, seq)
		for _, r := range recs {
			if r.Kind == RecPrepare && !DecodePrepareValue(r.Value, &parts, &nested) {
				return fmt.Errorf("xid %d: %w", r.Key, ErrPrepareLayout)
			}
		}
		return nil
	})
	if !errors.Is(err, ErrPrepareLayout) {
		t.Fatalf("Replay over an unmarked prepare: %v; want the apply error", err)
	}
	if !reflect.DeepEqual(applied, []uint64{1, 2}) {
		t.Errorf("applied batches %v, want [1 2]: replay stops at the refused one", applied)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("segment changed by a refused replay (%d bytes before, %d after, %v)", len(before), len(after), err)
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every couple of batches.
	l := openStarted(t, dir, Options{SegmentBytes: 64})
	val := bytes.Repeat([]byte("v"), 40)
	for i := 1; i <= 20; i++ {
		if _, _, err := l.Append([]Record{{Kind: RecPut, Key: uint64(i), Value: val}}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	segs, err := l.segments()
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected many small segments, got %d", len(segs))
	}
	// Prune everything covered through seq 10: segments whose whole range is
	// ≤ 10 go away, the rest (and the active segment) stay replayable.
	if err := l.Prune(10); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	after, _ := l.segments()
	if len(after) >= len(segs) {
		t.Fatalf("Prune removed nothing: %d -> %d segments", len(segs), len(after))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state, st := collectReplay(t, dir, 11, Options{})
	if st.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", st.TruncatedBytes)
	}
	if st.LastSeq != 20 {
		t.Fatalf("LastSeq = %d, want 20", st.LastSeq)
	}
	for i := uint64(11); i <= 20; i++ {
		if !bytes.Equal(state[i], val) {
			t.Fatalf("key %d missing after prune+replay", i)
		}
	}
}

// TestSyncDuringRotation flushes from several goroutines while another
// appends through tiny segments: a rotation closes the active file, and a
// Sync that was about to fdatasync it must wait for the swap instead of
// flushing a closed descriptor (which fails the log for good).
func TestSyncDuringRotation(t *testing.T) {
	l := openStarted(t, t.TempDir(), Options{SegmentBytes: 64})
	const batches, syncers = 400, 3
	seqs := make(chan uint64, batches)
	errs := make(chan error, syncers+1)
	var wg sync.WaitGroup
	for g := 0; g < syncers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range seqs {
				if err := l.Sync(seq); err != nil {
					errs <- fmt.Errorf("Sync(%d): %w", seq, err)
					return
				}
			}
		}()
	}
	val := bytes.Repeat([]byte("v"), 40)
	for i := 1; i <= batches; i++ {
		seq, _, err := l.Append([]Record{{Kind: RecPut, Key: uint64(i), Value: val}})
		if err != nil {
			errs <- fmt.Errorf("Append %d: %w", i, err)
			break
		}
		seqs <- seq
	}
	close(seqs)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if l.Failed() {
		t.Error("the log failed")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openStarted(t, dir, Options{})
	for i := 1; i <= 10; i++ {
		if _, _, err := l.Append([]Record{{Kind: RecPut, Key: uint64(i), Value: []byte("v")}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the tail: chop half of the last batch off the single segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatalf("tear: %v", err)
	}

	state, st := collectReplay(t, dir, 1, Options{})
	if st.Batches != 9 || st.LastSeq != 9 {
		t.Fatalf("ReplayStats after tear = %+v, want 9 intact batches", st)
	}
	if st.TruncatedBytes == 0 {
		t.Fatalf("tear not reported in TruncatedBytes")
	}
	if _, ok := state[10]; ok {
		t.Fatalf("torn batch 10 was applied")
	}
	// The truncation is physical: a fresh replay sees a clean log, and a
	// restarted log continues from seq 10.
	_, st2 := collectReplay(t, dir, 1, Options{})
	if st2.TruncatedBytes != 0 || st2.Batches != 9 {
		t.Fatalf("second replay not clean: %+v", st2)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := l2.Replay(1, nil); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := l2.Start(10); err != nil {
		t.Fatalf("Start(10): %v", err)
	}
	if seq, _, err := l2.Append([]Record{{Kind: RecPut, Key: 10, Value: []byte("retry")}}); err != nil || seq != 10 {
		t.Fatalf("Append after recovery: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state3, _ := collectReplay(t, dir, 1, Options{})
	if string(state3[10]) != "retry" {
		t.Fatalf("post-recovery append lost: %q", state3[10])
	}
}

func TestBitFlipStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l := openStarted(t, dir, Options{})
	for i := 1; i <= 5; i++ {
		if _, _, err := l.Append([]Record{{Kind: RecPut, Key: uint64(i), Value: []byte("abcdef")}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	b, _ := os.ReadFile(path)
	// Flip one bit inside the third batch's body.
	frame := batchHdrLen + 8 + 4 + 1 + 8 + 4 + 6 // one batch, one 6-byte put
	b[2*frame+batchHdrLen+3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	state, st := collectReplay(t, dir, 1, Options{})
	if st.Batches != 2 || st.LastSeq != 2 {
		t.Fatalf("ReplayStats after bit flip = %+v, want 2 intact batches", st)
	}
	if len(state) != 2 {
		t.Fatalf("replayed %d keys, want 2", len(state))
	}
	if st.TruncatedBytes != int64(3*frame) {
		t.Fatalf("TruncatedBytes = %d, want %d (batches 3..5)", st.TruncatedBytes, 3*frame)
	}
}

func TestCleanMarker(t *testing.T) {
	dir := t.TempDir()
	l := openStarted(t, dir, Options{})
	if _, _, err := l.Append([]Record{{Kind: RecPut, Key: 1, Value: []byte("v")}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := MarkClean(dir, 1); err != nil {
		t.Fatalf("MarkClean: %v", err)
	}
	if segs, _ := listSegments(dir); len(segs) != 0 {
		t.Fatalf("MarkClean left %d segments", len(segs))
	}
	seq, ok := ReadCleanMarker(dir)
	if !ok || seq != 1 {
		t.Fatalf("ReadCleanMarker = (%d, %v), want (1, true)", seq, ok)
	}
	// Corrupt marker must be ignored.
	mb, _ := os.ReadFile(filepath.Join(dir, cleanFile))
	mb[0] ^= 0xff
	_ = os.WriteFile(filepath.Join(dir, cleanFile), mb, 0o644)
	if _, ok := ReadCleanMarker(dir); ok {
		t.Fatalf("corrupt marker accepted")
	}
	if err := RemoveCleanMarker(dir); err != nil {
		t.Fatalf("RemoveCleanMarker: %v", err)
	}
	if err := RemoveCleanMarker(dir); err != nil {
		t.Fatalf("RemoveCleanMarker (missing): %v", err)
	}
}

func TestSnapshotRoundTripAndRetention(t *testing.T) {
	dir := t.TempDir()
	entries := []Entry{
		{Key: 1, Value: []byte("one")},
		{Key: 2, Value: []byte{}},
		{Key: 3, Value: bytes.Repeat([]byte("z"), 1000)},
	}
	if err := WriteSnapshot(dir, 7, entries); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := WriteSnapshot(dir, 42, entries[:1]); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	seq, got, ok, err := LoadNewestSnapshot(dir)
	if err != nil || !ok || seq != 42 || len(got) != 1 {
		t.Fatalf("LoadNewestSnapshot = (%d, %d entries, %v, %v)", seq, len(got), ok, err)
	}
	// Corrupt the newest: loader must fall back to the older valid one.
	path := filepath.Join(dir, snapName(42))
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0x01
	_ = os.WriteFile(path, b, 0o644)
	seq, got, ok, err = LoadNewestSnapshot(dir)
	if err != nil || !ok || seq != 7 || len(got) != 3 {
		t.Fatalf("fallback LoadNewestSnapshot = (%d, %d entries, %v, %v)", seq, len(got), ok, err)
	}
	for i, e := range entries {
		if got[i].Key != e.Key || !bytes.Equal(got[i].Value, e.Value) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if err := PruneSnapshots(dir, 7); err != nil {
		t.Fatalf("PruneSnapshots: %v", err)
	}
	if seq, _, ok, _ := LoadNewestSnapshot(dir); !ok || seq != 7 {
		t.Fatalf("retained snapshot gone: (%d, %v)", seq, ok)
	}
	// Missing dir is not an error: a fresh shard simply has no snapshot.
	if _, _, ok, err := LoadNewestSnapshot(filepath.Join(dir, "nope")); ok || err != nil {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

func TestDiskFaultsStickTheLog(t *testing.T) {
	cases := []struct {
		name string
		cfg  faultinject.Config
	}{
		{"append-err", faultinject.Config{DiskAppendErrEvery: 3}},
		{"torn", faultinject.Config{DiskTornEvery: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in := faultinject.New(tc.cfg)
			l := openStarted(t, dir, Options{Fault: in.DiskHook()})
			var failedAt uint64
			for i := 1; i <= 10; i++ {
				_, _, err := l.Append([]Record{{Kind: RecPut, Key: uint64(i), Value: []byte("v")}})
				if err != nil {
					var df *faultinject.InjectedDiskFault
					if !errors.As(err, &df) {
						t.Fatalf("Append %d: unexpected error %v", i, err)
					}
					failedAt = uint64(i)
					break
				}
			}
			if failedAt == 0 {
				t.Fatalf("no injected fault fired")
			}
			if !l.Failed() {
				t.Fatalf("log not marked failed")
			}
			if _, _, err := l.Append(nil); !errors.Is(err, ErrFailed) {
				t.Fatalf("Append after failure = %v, want ErrFailed", err)
			}
			if err := l.Sync(failedAt); !errors.Is(err, ErrFailed) {
				t.Fatalf("Sync after failure = %v, want ErrFailed", err)
			}
			_ = l.Close()
			// Replay recovers exactly the intact prefix — a torn append's
			// half-written batch must be truncated, never applied.
			state, st := collectReplay(t, dir, 1, Options{})
			if st.LastSeq != failedAt-1 {
				t.Fatalf("LastSeq = %d, want %d", st.LastSeq, failedAt-1)
			}
			if _, ok := state[failedAt]; ok {
				t.Fatalf("failed batch %d visible after replay", failedAt)
			}
			_ = st
			if got := in.Stats(); got.DiskFaults != 1 || got.DiskCalls == 0 {
				t.Fatalf("injector stats = %+v", got)
			}
		})
	}
}

func TestSyncFaultSticksTheLog(t *testing.T) {
	dir := t.TempDir()
	in := faultinject.New(faultinject.Config{DiskSyncErrEvery: 1})
	l := openStarted(t, dir, Options{Fault: in.DiskHook()})
	if _, _, err := l.Append([]Record{{Kind: RecPut, Key: 1, Value: []byte("v")}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	err := l.Sync(1)
	var df *faultinject.InjectedDiskFault
	if !errors.As(err, &df) || df.Op != faultinject.DiskSync {
		t.Fatalf("Sync = %v, want injected sync fault", err)
	}
	if !l.Failed() {
		t.Fatalf("log not failed after sync fault")
	}
	if _, _, err := l.Append(nil); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append after sync fault = %v, want ErrFailed", err)
	}
	_ = l.Close()
}
