package enc_test

import (
	"bytes"
	"context"
	"testing"

	"votm"
	"votm/enc"
)

// BenchmarkBlobCopy times the value path a votmd point op takes through the
// blob codec: one transaction that reads a stored blob into a reused buffer
// (AppendBlob, a GET) and writes a blob of the same size (StoreBlob, a PUT).
// The lock-mode (Q = 1) view moves the whole words as runs, the NOrec view
// word by word; values are 64 B (the benchmark's) and 1 KiB.
func BenchmarkBlobCopy(b *testing.B) {
	for _, mode := range []struct {
		name  string
		quota int
	}{{"lock", 1}, {"norec", 2}} {
		for _, size := range []int{64, 1024} {
			name := mode.name + "/64B"
			if size == 1024 {
				name = mode.name + "/1KiB"
			}
			b.Run(name, func(b *testing.B) {
				rt := votm.New(votm.Config{Threads: 2, Engine: votm.NOrec})
				v, err := rt.CreateView(1, 4096, mode.quota)
				if err != nil {
					b.Fatal(err)
				}
				th := rt.RegisterThread()
				ctx := context.Background()
				val := bytes.Repeat([]byte{0x5A}, size)
				src, dst := votm.Addr(0), votm.Addr(enc.BlobWords(size))
				if err := v.Atomic(ctx, th, func(tx votm.Tx) error { enc.StoreBlob(tx, src, val); return nil }); err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 0, size)
				body := func(tx votm.Tx) error {
					buf = enc.AppendBlob(buf[:0], tx, src)
					enc.StoreBlob(tx, dst, val)
					return nil
				}
				b.SetBytes(int64(2 * size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := v.Atomic(ctx, th, body); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if !bytes.Equal(buf, val) {
					b.Fatalf("read back %d bytes, not the %d stored", len(buf), size)
				}
			})
		}
	}
}
