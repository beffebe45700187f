package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// buildSegment writes nBatches single-record batches starting at seq 1 and
// returns the raw segment bytes.
func buildSegment(tb testing.TB, nBatches int) []byte {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	if err := l.Start(1); err != nil {
		tb.Fatalf("Start: %v", err)
	}
	for i := 1; i <= nBatches; i++ {
		recs := []Record{
			{Kind: RecPut, Key: uint64(i), Value: bytes.Repeat([]byte{byte(i)}, i%7)},
			{Kind: RecDelete, Key: uint64(i + 1000)},
		}
		if _, _, err := l.Append(recs); err != nil {
			tb.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		tb.Fatalf("read segment: %v", err)
	}
	return b
}

// FuzzReplay feeds arbitrary bytes to the replayer as the contents of the
// first segment and asserts the crash-recovery contract: replay never
// panics, never errors on corrupt input, applies batches strictly in
// sequence order starting at 1, and every applied batch is an intact prefix
// of the file — replay must stop cleanly at the first corrupt record and
// never surface a partial group.
func FuzzReplay(f *testing.F) {
	seg := buildSegment(f, 8)
	f.Add(seg)                 // intact log
	f.Add(seg[:len(seg)-5])    // torn tail: short final frame
	f.Add(seg[:len(seg)/2])    // torn mid-file
	f.Add(seg[:batchHdrLen-2]) // shorter than one header
	f.Add([]byte{})            // empty segment
	flip := append([]byte(nil), seg...)
	flip[len(flip)/3] ^= 0x10 // bit flip in a middle batch
	f.Add(flip)
	hdr := append([]byte(nil), seg...)
	hdr[0] ^= 0xff // absurd length prefix
	f.Add(hdr)
	// A cross-shard round as the server logs it: a participant-listing
	// prepare, a group batch behind it carrying the owed commit annotation in
	// front — whole, and torn inside the prepare's value.
	round := appendBatch(nil, 1, []Record{{Kind: RecPrepare, Key: 77, Value: AppendPrepareValue(nil,
		[]Participant{{Shard: 0, Seq: 1}, {Shard: 2, Seq: 9}},
		[]Record{{Kind: RecPut, Key: 5, Value: []byte("five")}, {Kind: RecDelete, Key: 6}})}})
	tornAt := len(round) - 9
	round = appendBatch(round, 2, []Record{{Kind: RecCommit, Key: 77}, {Kind: RecPut, Key: 5, Value: []byte("later")}})
	f.Add(round)
	f.Add(round[:tornAt])
	// A prepare whose value is a bare record list, in an intact batch: the
	// frame replays, and the value must not decode.
	f.Add(appendBatch(nil, 1, []Record{{Kind: RecPrepare, Key: 78,
		Value: AppendRecords(nil, []Record{{Kind: RecPut, Key: 5, Value: []byte("five")}})}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		next := uint64(1)
		applied := int64(0)
		st, err := l.Replay(1, func(seq uint64, recs []Record) error {
			if seq != next {
				t.Fatalf("batch %d applied out of order (want %d)", seq, next)
			}
			next = seq + 1
			for _, r := range recs {
				if r.Kind < RecPut || r.Kind > RecAbort {
					t.Fatalf("invalid record kind %d surfaced", r.Kind)
				}
				if r.Kind == RecPrepare {
					var parts []Participant
					var nested []Record
					// Any bytes: must not panic, and only a marked value decodes.
					if DecodePrepareValue(r.Value, &parts, &nested) && !bytes.HasPrefix(r.Value, prepareHead) {
						t.Fatalf("prepare value %x decoded without the mark", r.Value)
					}
				}
			}
			applied++
			return nil
		})
		if err != nil {
			t.Fatalf("Replay errored on corrupt input: %v", err)
		}
		if int64(st.Batches) != applied {
			t.Fatalf("stats report %d batches, applied %d", st.Batches, applied)
		}
		// The truncation must be physical and idempotent: a second replay of
		// the repaired log sees the same batches and zero truncated bytes.
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		st2, err := l2.Replay(1, nil)
		if err != nil {
			t.Fatalf("second Replay: %v", err)
		}
		if st2.TruncatedBytes != 0 {
			t.Fatalf("second replay still truncating (%d bytes)", st2.TruncatedBytes)
		}
		if st2.Batches != st.Batches {
			t.Fatalf("second replay applied %d batches, first %d", st2.Batches, st.Batches)
		}
		// And the repaired log is appendable: the intact prefix extends.
		if err := l2.Start(st2.LastSeq + 1); err != nil {
			t.Fatalf("Start after repair: %v", err)
		}
		if _, _, err := l2.Append([]Record{{Kind: RecPut, Key: 9, Value: []byte("k")}}); err != nil {
			t.Fatalf("Append after repair: %v", err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st3, err := mustOpen(t, dir).Replay(1, nil)
		if err != nil {
			t.Fatalf("third Replay: %v", err)
		}
		if st3.Batches != st.Batches+1 {
			t.Fatalf("post-repair append lost: %d batches, want %d", st3.Batches, st.Batches+1)
		}
	})
}

// prepareHead is how every prepare value the decoder accepts begins.
var prepareHead = []byte{0xff, 0xff, 0xff, 0xff, prepareVersion}

// sealSnapshot frames body as a snapshot file: the magic in front, the CRC
// over both behind.
func sealSnapshot(body []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, snapMagic)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// FuzzLoadSnapshot feeds arbitrary bytes, sealed with the snapshot magic and
// a valid CRC, to the snapshot loader as the only snapshot file: whatever the
// header claims, loading never panics, and a file that loads re-encodes to
// the same sequence and entries. A count the file cannot hold is just an
// invalid snapshot.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	if err := WriteSnapshot(dir, 41, []Entry{{Key: 1, Value: []byte("one")}, {Key: 2}, {Key: 1 << 60, Value: bytes.Repeat([]byte{7}, 300)}}); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, snapName(41)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file[8 : len(file)-4])                              // a valid snapshot
	f.Add(file[8 : len(file)-9])                              // cut inside the last value
	f.Add(binary.LittleEndian.AppendUint64(file[8:16:16], 0)) // empty
	huge := binary.LittleEndian.AppendUint64(file[8:16:16], 1<<62)
	f.Add(huge)                                  // a count no memory holds
	f.Add(append(huge, file[24:len(file)-4]...)) // the same count before real entries

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(9)), sealSnapshot(body), 0o644); err != nil {
			t.Fatal(err)
		}
		seq, entries, ok, err := LoadNewestSnapshot(dir)
		if err != nil {
			t.Fatalf("LoadNewestSnapshot: %v", err)
		}
		if !ok {
			return
		}
		again := t.TempDir()
		if err := WriteSnapshot(again, seq, entries); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		seq2, entries2, ok, err := LoadNewestSnapshot(again)
		if err != nil || !ok || seq2 != seq || !reflect.DeepEqual(entries2, entries) {
			t.Fatalf("re-encoded snapshot loads as seq %d, %d entries (ok %v, %v); want seq %d, %d entries",
				seq2, len(entries2), ok, err, seq, len(entries))
		}
	})
}

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}
