// Snapshot files: a full key/value image of one shard at a known WAL
// sequence, written atomically (temp file + fsync + rename + dir fsync) so
// a crash mid-snapshot leaves the previous snapshot intact. Recovery loads
// the newest snapshot that validates and replays only the WAL tail past its
// sequence; retention is "newest snapshot + tail" — older snapshots and
// fully-covered segments are pruned after each successful snapshot.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Entry is one key/value pair of a snapshot.
type Entry struct {
	Key   uint64
	Value []byte
}

const (
	snapMagic  = 0x564f544d534e4150 // "VOTMSNAP"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapHdrLen = 24 // magic + seq + count
)

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// WriteSnapshot writes entries as the snapshot at seq (the last WAL
// sequence the image includes; 0 = an empty log). The file layout is
//
//	u64 magic | u64 seq | u64 count | count × (u64 key | u32 vlen | bytes) | u32 crc32c
//
// with the CRC covering everything before it. The write is atomic: a crash
// leaves either the complete new snapshot or none at all.
func WriteSnapshot(dir string, seq uint64, entries []Entry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := snapHdrLen + 4
	for _, e := range entries {
		n += 12 + len(e.Value)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint64(b, snapMagic)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, e.Key)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Value)))
		b = append(b, e.Value...)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))

	tmp := filepath.Join(dir, snapName(seq)+".tmp")
	if err := writeFileSync(tmp, b); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(seq))); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// LoadNewestSnapshot returns the newest snapshot in dir that validates
// (magic, count, CRC). Invalid or partial snapshot files are skipped, not
// deleted — recovery must never destroy evidence. ok is false when no
// valid snapshot exists.
func LoadNewestSnapshot(dir string) (seq uint64, entries []Entry, ok bool, err error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	var seqs []uint64
	for _, e := range ents {
		if s, isSnap := parseSnapName(e.Name()); isSnap {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, s := range seqs {
		entries, ok = readSnapshot(filepath.Join(dir, snapName(s)))
		if ok {
			return s, entries, true, nil
		}
	}
	return 0, nil, false, nil
}

// readSnapshot parses and validates one snapshot file.
func readSnapshot(path string) ([]Entry, bool) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < snapHdrLen+4 {
		return nil, false
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, false
	}
	if binary.LittleEndian.Uint64(body) != snapMagic {
		return nil, false
	}
	count := binary.LittleEndian.Uint64(body[16:])
	p := body[snapHdrLen:]
	// An entry takes at least 12 bytes: the file, not its count, bounds the
	// capacity (the CRC vouches for the bytes, not for the writer).
	entries := make([]Entry, 0, min(count, uint64(len(p)/12)))
	for i := uint64(0); i < count; i++ {
		if len(p) < 12 {
			return nil, false
		}
		key := binary.LittleEndian.Uint64(p)
		vlen := int(binary.LittleEndian.Uint32(p[8:]))
		p = p[12:]
		if vlen > len(p) {
			return nil, false
		}
		entries = append(entries, Entry{Key: key, Value: p[:vlen:vlen]})
		p = p[vlen:]
	}
	if len(p) != 0 {
		return nil, false
	}
	return entries, true
}

// PruneSnapshots removes every snapshot older than keepSeq (retention:
// newest snapshot only).
func PruneSnapshots(dir string, keepSeq uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, e := range ents {
		if s, isSnap := parseSnapName(e.Name()); isSnap && s < keepSeq {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return syncDir(dir)
	}
	return nil
}
