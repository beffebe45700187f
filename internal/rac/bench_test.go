package rac

import (
	"context"
	"testing"
	"time"
)

func BenchmarkEnterExitUncontended(b *testing.B) {
	c := New(Params{Threads: 16, InitialQuota: 16})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := c.Enter(ctx)
		c.Exit(m, Committed, time.Microsecond)
	}
}

func BenchmarkEnterExitLockMode(b *testing.B) {
	c := New(Params{Threads: 16, InitialQuota: 1})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := c.Enter(ctx)
		c.Exit(m, Committed, time.Microsecond)
	}
}

func BenchmarkEnterExitParallel(b *testing.B) {
	c := New(Params{Threads: 64, InitialQuota: 64})
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m, _ := c.Enter(ctx)
			c.Exit(m, Committed, time.Microsecond)
		}
	})
}

func BenchmarkEnterExitParallelThrottled(b *testing.B) {
	// Quota 2 with many goroutines: measures the waiter/broadcast path. Eight
	// goroutines per P, so the quota is short of them on any GOMAXPROCS.
	c := New(Params{Threads: 64, InitialQuota: 2})
	ctx := context.Background()
	b.SetParallelism(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m, _ := c.Enter(ctx)
			c.Exit(m, Committed, time.Microsecond)
		}
	})
}

func BenchmarkRecord(b *testing.B) {
	c := New(Params{Threads: 16, InitialQuota: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Record(Committed, time.Microsecond)
	}
}

func BenchmarkAdaptiveWindow(b *testing.B) {
	// Full adjustment windows: Enter/Exit with periodic δ evaluation.
	c := New(Params{Threads: 16, InitialQuota: 0, AdjustEvery: 64})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := c.Enter(ctx)
		out := Committed
		if i%3 == 0 {
			out = Aborted
		}
		c.Exit(m, out, time.Microsecond)
	}
}
