// kvserver demonstrates the votmd serving layer end to end, in one process:
// it boots a sharded server on a loopback listener, points the Go client at
// it, runs concurrent counter traffic that concentrates on one hot shard,
// and then reads the per-shard STATS to show each shard's independent RAC
// admission controller — the paper's view isolation, observed over TCP.
//
// Run with: go run ./examples/kvserver
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"votm/client"
	"votm/internal/server"
	"votm/wire"
)

func main() {
	srv, err := server.New(server.Config{
		Shards:          4,
		WorkersPerShard: 4,
		AdjustEvery:     64,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Fatal(err)
		}
	}()
	addr := ln.Addr().String()
	fmt.Printf("votmd serving 4 shards on %s\n\n", addr)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Plain KV traffic: PUT / GET / CAS / DELETE.
	if _, err := c.Put(ctx, 1, []byte("hello")); err != nil {
		log.Fatal(err)
	}
	val, _ := c.Get(ctx, 1)
	fmt.Printf("GET 1            -> %q\n", val)
	if err := c.CAS(ctx, 1, []byte("hello"), []byte("world")); err != nil {
		log.Fatal(err)
	}
	val, _ = c.Get(ctx, 1)
	fmt.Printf("CAS then GET 1   -> %q\n", val)
	if err := c.CAS(ctx, 1, []byte("stale"), []byte("x")); errors.Is(err, client.ErrCASMismatch) {
		fmt.Printf("stale CAS        -> %v\n", err)
	}
	_ = c.Delete(ctx, 1)

	// A single-shard ATOMIC batch: all keys must live on one shard, and the
	// whole batch commits as one transaction.
	shard0 := make([]uint64, 0, 2)
	for k := uint64(0); len(shard0) < 2; k++ {
		if srv.Shard(k) == 0 {
			shard0 = append(shard0, k)
		}
	}
	subs, err := c.Atomic(ctx, []wire.Sub{
		{Kind: wire.SubPut, Key: shard0[0], Value: []byte("batched")},
		{Kind: wire.SubAdd, Key: shard0[1], Delta: 10},
		{Kind: wire.SubGet, Key: shard0[0]},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATOMIC           -> add sum %d, batch read %q\n\n", subs[1].Sum, subs[2].Value)

	// Hot-shard demo: 8 goroutines hammer multi-key ATOMIC batches over the
	// same four counters on shard 0 while one goroutine trickles onto the
	// other shards. The closing STATS shows each shard's view — commits,
	// aborts and RAC quota — evolving independently. (With loopback RTTs
	// dwarfing these microsecond transactions most batches commit first try;
	// under real sustained contention the hot view's aborts drive its quota
	// down while the cold views never budge — internal/server's soak test
	// pins exactly that.)
	hotKeys := make([]uint64, 0, 4)
	for k := uint64(100); len(hotKeys) < 4; k++ {
		if srv.Shard(k) == 0 {
			hotKeys = append(hotKeys, k)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				batch := make([]wire.Sub, len(hotKeys))
				for j, k := range hotKeys {
					batch[j] = wire.Sub{Kind: wire.SubAdd, Key: k, Delta: 1}
				}
				if _, err := c.Atomic(ctx, batch); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := c.Add(ctx, uint64(200+i), 1); err != nil {
				log.Fatal(err)
			}
		}
	}()
	wg.Wait()

	sum, _ := c.Add(ctx, hotKeys[0], 0)
	fmt.Printf("hot counter %d holds %d after 8 contending writers\n\n", hotKeys[0], sum)

	stats, err := c.Stats(ctx, wire.AllShards)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-shard STATS (each shard = one VOTM view + RAC controller):")
	for _, s := range stats {
		fmt.Printf("  shard %d [%s]: commits=%-5d aborts=%-4d Q=%d settled=%d keys=%d quotaMoves=%d\n",
			s.Shard, s.Engine, s.Commits, s.Aborts, s.Quota, s.SettledQuota, s.Keys, s.QuotaMoves)
	}

	// Graceful drain: in-flight work finishes, then the views close.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndrained cleanly")
}
