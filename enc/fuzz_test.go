package enc_test

import (
	"bytes"
	"context"
	"testing"

	"votm"
	"votm/enc"
)

// runViews is one lock-mode (Q = 1) view, whose handle moves whole words as
// runs, and one TM view, whose handle moves them word by word — the two
// paths the byte codecs take — each big enough that a base near chunkEdge
// puts a value across the heap's 64 Ki-word chunk edge.
func runViews(tb testing.TB) ([2]*votm.View, *votm.Thread) {
	rt := votm.New(votm.Config{Threads: 2})
	var vs [2]*votm.View
	for i, q := range []int{1, 2} {
		v, err := rt.CreateView(i+1, chunkEdge+4096, q)
		if err != nil {
			tb.Fatal(err)
		}
		vs[i] = v
	}
	return vs, rt.RegisterThread()
}

// chunkEdge is the first word of the heap's second chunk.
const chunkEdge = 1 << 16

// paths names runViews' two views.
var paths = [2]string{"word runs", "word by word"}

// equalHeaps fails unless the two views hold the same words in [lo, hi).
func equalHeaps(t *testing.T, vs [2]*votm.View, lo, hi votm.Addr) {
	for a := lo; a < hi; a++ {
		if l, m := vs[0].Heap().Load(a), vs[1].Heap().Load(a); l != m {
			t.Fatalf("word %d: %#x %s, %#x %s", a, l, paths[0], m, paths[1])
		}
	}
}

// FuzzBytesRoundTrip checks StoreBytes/LoadBytes against arbitrary payloads
// and offsets, and that bytes outside the written range stay untouched — on
// both paths, which must also leave the same words behind. edge puts the base
// two words before the chunk edge.
func FuzzBytesRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), uint8(0), false)
	f.Add([]byte{}, uint8(3), false)
	f.Add([]byte{0xff}, uint8(7), false)
	f.Add(bytes.Repeat([]byte{0x5a}, 40), uint8(13), false)
	// Word-boundary lengths (one byte either side of 8) at offsets that make
	// the payload straddle a word edge — the cases the packing math must not
	// get wrong by one.
	f.Add(bytes.Repeat([]byte{0x11}, 7), uint8(0), false)
	f.Add(bytes.Repeat([]byte{0x22}, 8), uint8(0), false)
	f.Add(bytes.Repeat([]byte{0x33}, 9), uint8(0), false)
	f.Add(bytes.Repeat([]byte{0x44}, 7), uint8(5), false)
	f.Add(bytes.Repeat([]byte{0x55}, 8), uint8(3), false)
	f.Add(bytes.Repeat([]byte{0x66}, 9), uint8(7), false)
	f.Add(bytes.Repeat([]byte{0x77}, 16), uint8(1), false)
	// Runs at the chunk edge: across it aligned and ragged, a two-word canvas
	// that ends on it, and a three-word one that crosses it by one word.
	f.Add(bytes.Repeat([]byte{0x88}, 64), uint8(0), true)
	f.Add(bytes.Repeat([]byte{0x99}, 61), uint8(3), true)
	f.Add([]byte{}, uint8(0), true)
	f.Add(bytes.Repeat([]byte{0xBB}, 8), uint8(0), true)

	vs, th := runViews(f)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte, off8 uint8, edge bool) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		base := votm.Addr(64)
		if edge {
			base = chunkEdge - 2
		}
		off := int(off8 % 64)
		canvasLen := off + len(data) + 16
		for i, v := range vs {
			err := v.Atomic(ctx, th, func(tx votm.Tx) error {
				// Paint a sentinel canvas, write data inside it, verify both
				// the payload and the sentinel margins.
				canvas := bytes.Repeat([]byte{0xEE}, canvasLen)
				enc.StoreBytes(tx, base, 0, canvas)
				enc.StoreBytes(tx, base, off, data)
				if got := enc.LoadBytes(tx, base, off, len(data)); !bytes.Equal(got, data) {
					t.Fatalf("%s: payload mismatch at off %d", paths[i], off)
				}
				head := enc.LoadBytes(tx, base, 0, off)
				if !bytes.Equal(head, canvas[:off]) {
					t.Fatalf("%s: head margin clobbered at off %d", paths[i], off)
				}
				tail := enc.LoadBytes(tx, base, off+len(data), 16)
				if !bytes.Equal(tail, canvas[:16]) {
					t.Fatalf("%s: tail margin clobbered at off %d", paths[i], off)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		equalHeaps(t, vs, base, base+votm.Addr(enc.Words(canvasLen)))
	})
}

// FuzzStringRoundTrip checks the length-prefixed string codec.
func FuzzStringRoundTrip(f *testing.F) {
	f.Add("")
	f.Add("hello")
	f.Add("ünïcode — ✓")

	rt := votm.New(votm.Config{Threads: 1})
	v, _ := rt.CreateView(1, 4096, 1)
	th := rt.RegisterThread()
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 2048 {
			s = s[:2048]
		}
		base, err := v.Alloc(enc.StringWords(len(s)))
		if err != nil {
			t.Skip("view exhausted by corpus")
		}
		defer func() { _ = v.Free(base) }()
		err = v.Atomic(ctx, th, func(tx votm.Tx) error {
			enc.StoreString(tx, base, s)
			if got := enc.LoadString(tx, base); got != s {
				t.Fatalf("round trip: %q != %q", got, s)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzBlobRoundTrip checks the length-prefixed blob codec that votmd's shard
// store uses for every stored value, on both paths, against the input and
// the words the other path left. Seeds sit on the word boundaries (lengths
// 7, 8, 9) where BlobWords changes; edge puts the blob's length word just
// before the chunk edge.
func FuzzBlobRoundTrip(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte("value"), false)
	f.Add(bytes.Repeat([]byte{0xA7}, 7), false)
	f.Add(bytes.Repeat([]byte{0xB8}, 8), false)
	f.Add(bytes.Repeat([]byte{0xC9}, 9), false)
	f.Add(bytes.Repeat([]byte{0xD0}, 255), false)
	f.Add(bytes.Repeat([]byte{0xE1}, 64), true)
	f.Add(bytes.Repeat([]byte{0xF2}, 1021), true)

	vs, th := runViews(f)
	ctx := context.Background()
	scratch := make([]byte, 0, 4096)
	f.Fuzz(func(t *testing.T, data []byte, edge bool) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		base := votm.Addr(64)
		if edge {
			base = chunkEdge - 1
		}
		for i, v := range vs {
			err := v.Atomic(ctx, th, func(tx votm.Tx) error {
				enc.StoreBlob(tx, base, data)
				if got := enc.LoadBlob(tx, base); !bytes.Equal(got, data) {
					t.Fatalf("%s: blob round trip: %d bytes in, %d out", paths[i], len(data), len(got))
				}
				if got := enc.AppendBlob(scratch[:0], tx, base); !bytes.Equal(got, data) || !enc.BlobEqual(tx, base, data) {
					t.Fatalf("%s: AppendBlob or BlobEqual disagrees with the %d bytes stored", paths[i], len(data))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		equalHeaps(t, vs, base, base+votm.Addr(enc.BlobWords(len(data))))
	})
}
