// Package enc provides byte-, string- and slice-level accessors over VOTM's
// word-addressed view memory. The paper's STM (like RSTM) is word-based;
// real applications store richer data. These helpers pack bytes
// little-endian into 64-bit words through any transaction handle, so a
// single Atomic body can manipulate buffers, strings and numeric slices
// with ordinary transactional semantics. The Intruder reproduction uses
// StoreBytes for fragment reassembly.
//
// Layout convention: byte offsets are relative to a base word address;
// byte i lives in word base + i/8 at bit position 8·(i%8). Partial words
// are read-modify-written, so concurrent writers to different byte ranges
// of the same word conflict — exactly the word-granularity conflict
// behaviour a word-based STM has.
package enc

import (
	"encoding/binary"

	"votm"
)

// Words returns the number of words needed to hold n bytes.
func Words(n int) int { return (n + 7) / 8 }

// wordRuns is offered by a handle that moves a run of whole words at once —
// a lock-mode (Q = 1) transaction's; StoreBytes and AppendBytes hand it their
// word-aligned part. Other handles move word by word.
type wordRuns interface {
	AppendWords(dst []byte, a votm.Addr, n int) []byte
	StoreWords(a votm.Addr, src []byte)
}

// StoreBytes writes data at byte offset off relative to base: whole words
// where the offset is word-aligned, a read-modify-write for the ragged ends.
func StoreBytes(tx votm.Tx, base votm.Addr, off int, data []byte) {
	r, runs := tx.(wordRuns)
	for i := 0; i < len(data); {
		addr, byteIdx := base+votm.Addr((off+i)/8), (off+i)%8
		if byteIdx == 0 && len(data)-i >= 8 {
			if runs {
				n := (len(data) - i) &^ 7
				r.StoreWords(addr, data[i:i+n])
				i += n
				continue
			}
			tx.Store(addr, binary.LittleEndian.Uint64(data[i:]))
			i += 8
			continue
		}
		word := tx.Load(addr)
		for ; byteIdx < 8 && i < len(data); byteIdx, i = byteIdx+1, i+1 {
			shift := uint(byteIdx * 8)
			word = (word &^ (0xff << shift)) | uint64(data[i])<<shift
		}
		tx.Store(addr, word)
	}
}

// LoadBytes reads n bytes from byte offset off relative to base.
func LoadBytes(tx votm.Tx, base votm.Addr, off, n int) []byte {
	return AppendBytes(make([]byte, 0, n), tx, base, off, n)
}

// AppendBytes appends n bytes read from byte offset off (relative to base)
// to dst and returns the extended slice — LoadBytes without the allocation
// when dst already has capacity (votmd's reused response buffers). Like
// StoreBytes it moves whole words where the offset is word-aligned.
func AppendBytes(dst []byte, tx votm.Tx, base votm.Addr, off, n int) []byte {
	r, runs := tx.(wordRuns)
	for i := 0; i < n; {
		addr, byteIdx := base+votm.Addr((off+i)/8), (off+i)%8
		if runs && byteIdx == 0 && n-i >= 8 {
			words := (n - i) / 8
			dst = r.AppendWords(dst, addr, words)
			i += 8 * words
			continue
		}
		word := tx.Load(addr)
		if byteIdx == 0 && n-i >= 8 {
			dst = binary.LittleEndian.AppendUint64(dst, word)
			i += 8
			continue
		}
		for ; byteIdx < 8 && i < n; byteIdx, i = byteIdx+1, i+1 {
			dst = append(dst, byte(word>>(uint(byteIdx)*8)))
		}
	}
	return dst
}

// stringHdrWords is the length prefix of an encoded string.
const stringHdrWords = 1

// StringWords returns the words needed to store a string of n bytes
// (length prefix + payload).
func StringWords(n int) int { return stringHdrWords + Words(n) }

// StoreString writes s length-prefixed at base. The caller must have
// allocated at least StringWords(len(s)) words.
func StoreString(tx votm.Tx, base votm.Addr, s string) {
	tx.Store(base, uint64(len(s)))
	StoreBytes(tx, base+stringHdrWords, 0, []byte(s))
}

// LoadString reads a length-prefixed string from base.
func LoadString(tx votm.Tx, base votm.Addr) string {
	n := int(tx.Load(base))
	return string(LoadBytes(tx, base+stringHdrWords, 0, n))
}

// BlobWords returns the words needed to store a length-prefixed byte blob
// of n bytes — the value-block layout votmd stores under each key.
func BlobWords(n int) int { return stringHdrWords + Words(n) }

// StoreBlob writes b length-prefixed at base. The caller must have
// allocated at least BlobWords(len(b)) words.
func StoreBlob(tx votm.Tx, base votm.Addr, b []byte) {
	tx.Store(base, uint64(len(b)))
	StoreBytes(tx, base+stringHdrWords, 0, b)
}

// LoadBlob reads a length-prefixed byte blob from base.
func LoadBlob(tx votm.Tx, base votm.Addr) []byte {
	n := int(tx.Load(base))
	return LoadBytes(tx, base+stringHdrWords, 0, n)
}

// AppendBlob appends the length-prefixed byte blob at base to dst —
// LoadBlob without the allocation when dst already has capacity.
func AppendBlob(dst []byte, tx votm.Tx, base votm.Addr) []byte {
	n := int(tx.Load(base))
	return AppendBytes(dst, tx, base+stringHdrWords, 0, n)
}

// BlobEqual reports whether the blob at base equals b, comparing in place
// without materializing the stored bytes (votmd's CAS expectation check).
func BlobEqual(tx votm.Tx, base votm.Addr, b []byte) bool {
	if int(tx.Load(base)) != len(b) {
		return false
	}
	for i := 0; i < len(b); {
		word := tx.Load(base + stringHdrWords + votm.Addr(i/8))
		for j := 0; j < 8 && i < len(b); j++ {
			if byte(word>>(uint(j)*8)) != b[i] {
				return false
			}
			i++
		}
	}
	return true
}

// StoreUint64s writes xs to consecutive words at base.
func StoreUint64s(tx votm.Tx, base votm.Addr, xs []uint64) {
	for i, x := range xs {
		tx.Store(base+votm.Addr(i), x)
	}
}

// LoadUint64s reads n consecutive words from base.
func LoadUint64s(tx votm.Tx, base votm.Addr, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = tx.Load(base + votm.Addr(i))
	}
	return out
}

// StoreInt64 stores a signed value in one word (two's complement).
func StoreInt64(tx votm.Tx, a votm.Addr, v int64) { tx.Store(a, uint64(v)) }

// LoadInt64 loads a signed value from one word.
func LoadInt64(tx votm.Tx, a votm.Addr) int64 { return int64(tx.Load(a)) }

// Add atomically (within the transaction) adds delta to the word at a and
// returns the new value.
func Add(tx votm.Tx, a votm.Addr, delta uint64) uint64 {
	v := tx.Load(a) + delta
	tx.Store(a, v)
	return v
}
