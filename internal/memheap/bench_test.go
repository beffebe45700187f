package memheap

import (
	"math/rand"
	"testing"

	"votm/internal/stm"
)

func BenchmarkAllocFreePairs(b *testing.B) {
	a := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := a.Alloc(16)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocChurn(b *testing.B) {
	// Interleaved alloc/free of mixed sizes: exercises coalescing.
	a := New(1 << 20)
	live := make([]stm.Addr, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) == 64 {
			if err := a.Free(live[0]); err != nil {
				b.Fatal(err)
			}
			live = live[1:]
		}
		size := 1 + i%64
		blk, err := a.Alloc(size)
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, blk)
	}
}

// BenchmarkOverwriteSteadyState is the allocator's load under a shard that
// overwrites existing keys: 1 024 live (9-word value, 3…14-word index node)
// pairs laid out interleaved, then groups of 16 mutations, each reserving a
// value and a node in one AllocBatch and retiring the displaced value and the
// node it did not link in one FreeBatch. One iteration is one mutation.
func BenchmarkOverwriteSteadyState(b *testing.B) {
	const pairs, group, valueWords = 1024, 16, 9
	nodeWords := func(key int) int { return 3 + key%12 }
	a := New(1 << 15)
	values := make([]stm.Addr, pairs)
	for key := range values {
		got, err := a.AllocBatch([]int{valueWords, nodeWords(key)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		values[key] = got[0]
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, 1<<12)
	for i := range keys {
		keys[i] = rng.Intn(pairs)
	}
	sizes := make([]int, 0, 2*group)
	addrs := make([]stm.Addr, 0, 2*group)
	frees := make([]stm.Addr, 0, 2*group)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += group {
		picked := keys[i%len(keys):][:group]
		sizes = sizes[:0]
		for _, key := range picked {
			sizes = append(sizes, valueWords, nodeWords(key))
		}
		var err error
		if addrs, err = a.AllocBatch(sizes, addrs[:0]); err != nil {
			b.Fatal(err)
		}
		frees = frees[:0]
		for j, key := range picked {
			frees = append(frees, values[key], addrs[2*j+1])
			values[key] = addrs[2*j]
		}
		if err := a.FreeBatch(frees); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeBlocks churns blocks above the bin limit, which only the
// span list serves: 32 live 513-word blocks, the oldest freed and a new one
// allocated per iteration.
func BenchmarkLargeBlocks(b *testing.B) {
	const words = 513
	a := New(1 << 16)
	live := make([]stm.Addr, 32)
	for i := range live {
		var err error
		if live[i], err = a.Alloc(words); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(live)
		if err := a.Free(live[k]); err != nil {
			b.Fatal(err)
		}
		var err error
		if live[k], err = a.Alloc(words); err != nil {
			b.Fatal(err)
		}
	}
}
