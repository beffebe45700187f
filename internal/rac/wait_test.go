package rac

import (
	"context"
	"testing"
	"time"
)

// parkCtx announces every Done call on parking. Enter and PauseAndDrain ask
// for Done only in the select they park in (PauseAndDrain also in the one
// that takes the pause), after registering as a waiter, so a received
// announcement means the next broadcast must wake the caller.
type parkCtx struct {
	context.Context
	parking chan struct{}
}

func (p *parkCtx) Done() <-chan struct{} {
	p.parking <- struct{}{}
	return p.Context.Done()
}

// TestWaitsAllocFree: an Enter that waits for a lock holder's Exit, and a
// PauseAndDrain that waits for an admitted thread's, allocate nothing once
// the controller has seen a wait. At Q = 1 nearly every Exit of a contended
// view releases a waiter, so a wake-up that allocates is garbage per
// admission.
func TestWaitsAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dones int // Done calls up to the park
		wait  func(c *Controller, ctx context.Context)
	}{
		{"Enter", 1, func(c *Controller, ctx context.Context) {
			m, _ := c.Enter(ctx)
			c.Exit(m, Committed, time.Nanosecond)
		}},
		{"PauseAndDrain", 2, func(c *Controller, ctx context.Context) {
			if c.PauseAndDrain(ctx) == nil {
				c.Resume()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Params{Threads: 2, InitialQuota: 1})
			ctx := &parkCtx{Context: context.Background(), parking: make(chan struct{})}
			start, done := make(chan struct{}), make(chan struct{})
			go func() {
				for range start {
					tc.wait(c, ctx)
					done <- struct{}{}
				}
			}()
			defer close(start)
			allocs := testing.AllocsPerRun(100, func() {
				m, _ := c.Enter(context.Background())
				start <- struct{}{}
				for i := 0; i < tc.dones; i++ {
					<-ctx.parking
				}
				c.Exit(m, Committed, time.Nanosecond)
				<-done
			})
			if allocs != 0 {
				t.Errorf("%s behind a lock holder: %.2f allocs per wait, want 0", tc.name, allocs)
			}
		})
	}
}
