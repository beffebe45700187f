// Contention: watch Restricted Admission Control work. Sixteen goroutines
// hammer a tiny hot array through the livelock-prone OrecEagerRedo engine.
// With admission control disabled the run makes almost no progress; with
// adaptive RAC the controller measures δ(Q), halves the quota until the
// thrashing stops (usually all the way to lock mode, Q = 1), and the run
// completes. The quota timeline is printed as it changes.
//
// Run: go run ./examples/contention
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"votm"
)

const (
	threads  = 16
	hotWords = 8
	perG     = 300
	writes   = 6 // words written per transaction
)

func main() {
	fmt.Println("free admission (plain TM, 2s budget):")
	free := run(true, 2*time.Second)
	fmt.Printf("  completed %d/%d transactions\n\n", free, threads*perG)

	fmt.Println("adaptive RAC:")
	done := run(false, 60*time.Second)
	fmt.Printf("  completed %d/%d transactions\n", done, threads*perG)
}

func run(noAdmission bool, budget time.Duration) int64 {
	// The runtime's decision log captures every RAC quota move as it happens.
	rt := votm.New(votm.Config{
		Threads:     threads,
		Engine:      votm.OrecEagerRedo,
		NoAdmission: noAdmission,
		AdjustEvery: 128,
	})
	view, err := rt.CreateView(1, hotWords, votm.AdaptiveQuota)
	if err != nil {
		log.Fatal(err)
	}
	hot, err := view.Alloc(hotWords)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.RegisterThread()
			seed := uint64(id)*2654435761 + 1
			for i := 0; i < perG; i++ {
				err := view.Atomic(ctx, th, func(tx votm.Tx) error {
					s := seed
					for k := 0; k < writes; k++ {
						s = s*6364136223846793005 + 1442695040888963407
						a := hot + votm.Addr(s%hotWords)
						tx.Store(a, tx.Load(a)+1)
						runtime.Gosched() // simulate parallel overlap on small hosts
					}
					return nil
				})
				if err != nil {
					return // budget exhausted
				}
				seed += uint64(i)
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if !noAdmission {
		fmt.Printf("  quota timeline: %s\n", rt.Decisions().Timeline(1))
	}

	tot := view.Totals()
	fmt.Printf("  elapsed %v: commits=%d aborts=%d (%.1f aborts/commit)\n",
		time.Since(start).Round(time.Millisecond), tot.Commits, tot.Aborts,
		float64(tot.Aborts)/float64(max(tot.Commits, 1)))
	return completed.Load()
}
