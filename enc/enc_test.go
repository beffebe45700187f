package enc_test

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"votm"
	"votm/enc"
)

func newView(t testing.TB) (*votm.View, *votm.Thread) {
	t.Helper()
	rt := votm.New(votm.Config{Threads: 2})
	v, err := rt.CreateView(1, 1<<12, 2)
	if err != nil {
		t.Fatal(err)
	}
	return v, rt.RegisterThread()
}

func TestWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 7: 1, 8: 1, 9: 2, 16: 2, 17: 3}
	for n, want := range cases {
		if got := enc.Words(n); got != want {
			t.Errorf("Words(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBytesRoundTripAlignments(t *testing.T) {
	v, th := newView(t)
	base, _ := v.Alloc(64)
	ctx := context.Background()
	data := []byte("the quick brown fox jumps over the lazy dog")
	for off := 0; off < 17; off++ {
		off := off
		if err := v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreBytes(tx, base, off, data)
			got := enc.LoadBytes(tx, base, off, len(data))
			if !bytes.Equal(got, data) {
				t.Errorf("offset %d: round trip failed: %q", off, got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBytesQuickRoundTrip(t *testing.T) {
	v, th := newView(t)
	base, _ := v.Alloc(128)
	ctx := context.Background()
	prop := func(data []byte, off uint8) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		o := int(off % 32)
		ok := true
		_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreBytes(tx, base, o, data)
			if !bytes.Equal(enc.LoadBytes(tx, base, o, len(data)), data) {
				ok = false
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStoreBytesPreservesNeighbours(t *testing.T) {
	v, th := newView(t)
	base, _ := v.Alloc(8)
	ctx := context.Background()
	_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
		enc.StoreBytes(tx, base, 0, bytes.Repeat([]byte{0xAA}, 24))
		// Overwrite bytes 5..11 only.
		enc.StoreBytes(tx, base, 5, []byte{1, 2, 3, 4, 5, 6, 7})
		got := enc.LoadBytes(tx, base, 0, 24)
		want := append(bytes.Repeat([]byte{0xAA}, 5), 1, 2, 3, 4, 5, 6, 7)
		want = append(want, bytes.Repeat([]byte{0xAA}, 12)...)
		if !bytes.Equal(got, want) {
			t.Errorf("neighbours clobbered:\n got %v\nwant %v", got, want)
		}
		return nil
	})
}

func TestStringRoundTrip(t *testing.T) {
	v, th := newView(t)
	ctx := context.Background()
	for _, s := range []string{"", "a", "hello world", "héllo wörld — ünïcode"} {
		s := s
		base, err := v.Alloc(enc.StringWords(len(s)))
		if err != nil {
			t.Fatal(err)
		}
		_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreString(tx, base, s)
			if got := enc.LoadString(tx, base); got != s {
				t.Errorf("string round trip: %q != %q", got, s)
			}
			return nil
		})
	}
}

func TestUint64sRoundTrip(t *testing.T) {
	v, th := newView(t)
	base, _ := v.Alloc(16)
	ctx := context.Background()
	xs := []uint64{0, 1, ^uint64(0), 42, 1 << 63}
	_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
		enc.StoreUint64s(tx, base, xs)
		got := enc.LoadUint64s(tx, base, len(xs))
		for i := range xs {
			if got[i] != xs[i] {
				t.Errorf("slot %d: %d != %d", i, got[i], xs[i])
			}
		}
		return nil
	})
}

func TestInt64SignRoundTrip(t *testing.T) {
	v, th := newView(t)
	base, _ := v.Alloc(1)
	ctx := context.Background()
	for _, x := range []int64{0, -1, 1, -1 << 62, 1<<62 - 1} {
		x := x
		_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreInt64(tx, base, x)
			if got := enc.LoadInt64(tx, base); got != x {
				t.Errorf("int64 round trip: %d != %d", got, x)
			}
			return nil
		})
	}
}

func TestAdd(t *testing.T) {
	v, th := newView(t)
	base, _ := v.Alloc(1)
	ctx := context.Background()
	_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
		if got := enc.Add(tx, base, 5); got != 5 {
			t.Errorf("Add = %d", got)
		}
		if got := enc.Add(tx, base, 3); got != 8 {
			t.Errorf("Add = %d", got)
		}
		return nil
	})
	if v.Heap().Load(base) != 8 {
		t.Error("Add not committed")
	}
}

func TestBytesTransactional(t *testing.T) {
	// A byte write inside an aborted transaction must not leak.
	v, th := newView(t)
	base, _ := v.Alloc(8)
	ctx := context.Background()
	errBoom := func(tx votm.Tx) error {
		enc.StoreBytes(tx, base, 0, []byte("do not keep"))
		return context.Canceled // any non-nil user error: abort, no retry
	}
	if err := v.Atomic(ctx, th, errBoom); err == nil {
		t.Fatal("expected error")
	}
	_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
		if got := enc.LoadBytes(tx, base, 0, 11); !bytes.Equal(got, make([]byte, 11)) {
			t.Errorf("aborted bytes leaked: %v", got)
		}
		return nil
	})
}

// TestBlobBoundaries pins the blob codec — the value format votmd's shard
// store packs into the heap — at the lengths where the word count changes:
// one byte either side of each 8-byte word boundary.
func TestBlobBoundaries(t *testing.T) {
	v, th := newView(t)
	ctx := context.Background()
	for _, n := range []int{0, 1, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 64, 65} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i ^ n)
		}
		words := enc.BlobWords(n)
		if want := 1 + (n+7)/8; words != want {
			t.Errorf("BlobWords(%d) = %d, want %d", n, words, want)
		}
		base, err := v.Alloc(words)
		if err != nil {
			t.Fatal(err)
		}
		err = v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreBlob(tx, base, data)
			if got := enc.LoadBlob(tx, base); !bytes.Equal(got, data) {
				t.Errorf("len %d: got %d bytes %x", n, len(got), got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Free(base); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendBlobReusesCapacity pins the contract the server's zero-alloc
// read path depends on: AppendBlob writes into the destination's existing
// capacity (no fresh slice) and agrees byte-for-byte with LoadBlob.
func TestAppendBlobReusesCapacity(t *testing.T) {
	v, th := newView(t)
	ctx := context.Background()
	scratch := make([]byte, 0, 256)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + n)
		}
		base, err := v.Alloc(enc.BlobWords(n))
		if err != nil {
			t.Fatal(err)
		}
		err = v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreBlob(tx, base, data)
			out := enc.AppendBlob(scratch[:0], tx, base)
			if !bytes.Equal(out, data) {
				t.Errorf("len %d: AppendBlob = %x, want %x", n, out, data)
			}
			if n <= cap(scratch) && len(out) > 0 && &out[0] != &scratch[:1][0] {
				t.Errorf("len %d: AppendBlob abandoned the destination's capacity", n)
			}
			if !bytes.Equal(out, enc.LoadBlob(tx, base)) {
				t.Errorf("len %d: AppendBlob disagrees with LoadBlob", n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Free(base); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendBytesOffsets drives AppendBytes across word-boundary offsets and
// checks it against LoadBytes, the copying reference implementation.
func TestAppendBytesOffsets(t *testing.T) {
	v, th := newView(t)
	base, _ := v.Alloc(64)
	ctx := context.Background()
	data := []byte("pack my box with five dozen liquor jugs")
	dst := make([]byte, 0, 64)
	for off := 0; off < 17; off++ {
		off := off
		if err := v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreBytes(tx, base, off, data)
			for n := 0; n <= len(data); n += 7 {
				got := enc.AppendBytes(dst[:0], tx, base, off, n)
				want := enc.LoadBytes(tx, base, off, n)
				if !bytes.Equal(got, want) {
					t.Errorf("off %d n %d: %x want %x", off, n, got, want)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlobEqual checks the in-place comparison against every interesting
// disagreement: equal, different length, and a single flipped byte at the
// start, at a word boundary and at the tail.
func TestBlobEqual(t *testing.T) {
	v, th := newView(t)
	ctx := context.Background()
	data := []byte("0123456789abcdefghij") // 20 bytes: spans word boundaries
	base, err := v.Alloc(enc.BlobWords(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	err = v.Atomic(ctx, th, func(tx votm.Tx) error {
		enc.StoreBlob(tx, base, data)
		if !enc.BlobEqual(tx, base, data) {
			t.Error("BlobEqual(stored bytes) = false")
		}
		if enc.BlobEqual(tx, base, data[:19]) || enc.BlobEqual(tx, base, append(data[:20:20], 'x')) {
			t.Error("BlobEqual ignored a length mismatch")
		}
		for _, i := range []int{0, 7, 8, 15, 16, 19} {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x01
			if enc.BlobEqual(tx, base, mut) {
				t.Errorf("BlobEqual missed flipped byte %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Empty blob edge case.
	eb, err := v.Alloc(enc.BlobWords(0))
	if err != nil {
		t.Fatal(err)
	}
	err = v.Atomic(ctx, th, func(tx votm.Tx) error {
		enc.StoreBlob(tx, eb, nil)
		if !enc.BlobEqual(tx, eb, nil) || !enc.BlobEqual(tx, eb, []byte{}) {
			t.Error("BlobEqual(empty, empty) = false")
		}
		if enc.BlobEqual(tx, eb, []byte{0}) {
			t.Error("BlobEqual(empty, one byte) = true")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
