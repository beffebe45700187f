package stmds_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"votm/internal/core"
	"votm/internal/stmds"
)

func benchView(b *testing.B, words int) (*core.Runtime, *core.View, *core.Thread) {
	b.Helper()
	rt := core.NewRuntime(core.Config{Threads: 4, Engine: core.NOrec})
	v, err := rt.CreateView(1, words, 4)
	if err != nil {
		b.Fatal(err)
	}
	return rt, v, rt.RegisterThread()
}

func BenchmarkListInsertAscending(b *testing.B) {
	_, v, th := benchView(b, 1<<22)
	l, err := stmds.NewList(v)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	nodes := make([]stmds.Ref, b.N)
	for i := range nodes {
		n, err := l.NewNode(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val := uint64(i)
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			l.Insert(tx, nodes[i], val)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueueEnqueueDequeue(b *testing.B) {
	_, v, th := benchView(b, 4096)
	q, err := stmds.NewQueue(v, 1024)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			q.Enqueue(tx, uint64(i))
			_, _ = q.Dequeue(tx)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashMapPut(b *testing.B) {
	_, v, th := benchView(b, 1<<22)
	m, err := stmds.NewHashMap(v, 1024)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	nodes := make([]stmds.Ref, b.N)
	for i := range nodes {
		n, err := m.NewNode()
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i)
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			m.Put(tx, key, key, nodes[i])
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashMapGet(b *testing.B) {
	_, v, th := benchView(b, 1<<20)
	m, err := stmds.NewHashMap(v, 1024)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4096; i++ {
		n, err := m.NewNode()
		if err != nil {
			b.Fatal(err)
		}
		key := uint64(i)
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			m.Put(tx, key, key*3, n)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i % 4096)
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			if got, ok := m.Get(tx, key); !ok || got != key*3 {
				b.Errorf("Get(%d) = %d,%v", key, got, ok)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkipListPut(b *testing.B) {
	_, v, th := benchView(b, 1<<22)
	sl, err := stmds.NewSkipList(v, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	nodes := make([]stmds.Ref, b.N)
	for i := range nodes {
		n, err := sl.NewNode(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i)
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			sl.Put(tx, key, key, nodes[i])
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkipListGet(b *testing.B) {
	_, v, th := benchView(b, 1<<20)
	sl, err := stmds.NewSkipList(v, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4096; i++ {
		key := uint64(i)
		n, err := sl.NewNode(key)
		if err != nil {
			b.Fatal(err)
		}
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			sl.Put(tx, key, key*3, n)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i % 4096)
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			if got, ok := sl.Get(tx, key); !ok || got != key*3 {
				b.Errorf("Get(%d) = %d,%v", key, got, ok)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkipListScan walks a 64-key window per op — the shard-side cost
// of one SCAN page segment.
func BenchmarkSkipListScan(b *testing.B) {
	_, v, th := benchView(b, 1<<20)
	sl, err := stmds.NewSkipList(v, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4096; i++ {
		key := uint64(i)
		n, err := sl.NewNode(key)
		if err != nil {
			b.Fatal(err)
		}
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			sl.Put(tx, key, key, n)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := uint64((i * 61) % 4000)
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			n := sl.Seek(tx, from)
			for j := 0; j < 64 && n != stmds.NilRef; j++ {
				_ = sl.NodeVal(tx, n)
				n = sl.Next(tx, n)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// shardIndex builds a list laid out as a votmd shard lays out its index: keys
// a stride apart (one shard's share of a dense key space) put in ascending
// order sixteen to a group, each group's value blocks and nodes carved out by
// one AllocBatch as [value, node, value, node, ...] — the store kernel's
// reservation, with the larger directory NewDir asks for at its end — on a
// view of the server's default 1<<15 words, grown to fit. Each key's value is
// its 64-byte block (9 words). quota 1 runs every transaction in lock mode, 4
// through NOrec.
func shardIndex(b *testing.B, keys, quota int) (*core.View, *core.Thread, *stmds.SkipList, []uint64) {
	b.Helper()
	const valueWords, group = 9, 16
	rt := core.NewRuntime(core.Config{Threads: 4, Engine: core.NOrec})
	v, err := rt.CreateView(1, 1<<15, quota)
	if err != nil {
		b.Fatal(err)
	}
	sl, err := stmds.NewSkipList(v, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := v.Brk(keys * (valueWords + 8)); err != nil {
		b.Fatal(err)
	}
	th := rt.RegisterThread()
	ks := make([]uint64, keys)
	for i := range ks {
		ks[i] = uint64(i) * 4
	}
	ctx := context.Background()
	var sizes []int
	for lo := 0; lo < keys; lo += group {
		batch := ks[lo:min(lo+group, keys)]
		sizes = sizes[:0]
		for _, k := range batch {
			sizes = append(sizes, valueWords, sl.NodeWords(k))
		}
		dirWords := sl.NewDir(lo + len(batch))
		if dirWords > 0 {
			sizes = append(sizes, dirWords)
		}
		blocks, err := v.AllocBatch(sizes, nil)
		if err != nil {
			b.Fatal(err)
		}
		var old stmds.Ref
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			for i, k := range batch {
				sl.Put(tx, k, uint64(blocks[2*i]), stmds.Ref(blocks[2*i+1]))
			}
			if dirWords > 0 {
				old, _ = sl.GrowDir(tx, stmds.Ref(blocks[len(blocks)-1]), dirWords)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if dirWords > 0 {
			if err := sl.FreeNode(old); err != nil {
				b.Fatal(err)
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return v, th, sl, ks
}

// benchShardIndex times op on random keys of a shardIndex, sixteen calls to a
// transaction as a write group shares one: ns/op is per index call.
func benchShardIndex(b *testing.B, op func(sl *stmds.SkipList, tx core.Tx, key uint64)) {
	for _, keys := range []int{1 << 10, 1 << 16} {
		for _, mode := range []struct {
			name  string
			quota int
		}{{"lock", 1}, {"norec", 4}} {
			b.Run(fmt.Sprintf("keys=%dK/%s", keys>>10, mode.name), func(b *testing.B) {
				v, th, sl, ks := shardIndex(b, keys, mode.quota)
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i += 16 {
					if err := v.Atomic(ctx, th, func(tx core.Tx) error {
						for j := i; j < i+16 && j < b.N; j++ {
							op(sl, tx, ks[j%len(ks)])
						}
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSkipListShardGet is a GET's index lookup in a shard-shaped index.
func BenchmarkSkipListShardGet(b *testing.B) {
	benchShardIndex(b, func(sl *stmds.SkipList, tx core.Tx, key uint64) {
		if _, ok := sl.Get(tx, key); !ok {
			b.Fatalf("Get(%d) missed", key)
		}
	})
}

// BenchmarkSkipListShardSwap is a PUT's overwrite in a shard-shaped index:
// every key exists, so no spare node is linked (the values it leaves behind
// are never read).
func BenchmarkSkipListShardSwap(b *testing.B) {
	benchShardIndex(b, func(sl *stmds.SkipList, tx core.Tx, key uint64) {
		if _, existed, _ := sl.Swap(tx, key, key, stmds.NilRef); !existed {
			b.Fatalf("Swap(%d) found no key", key)
		}
	})
}
