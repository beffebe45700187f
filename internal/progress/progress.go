// Package progress runs the paper's experiments. Run owns what Eigenbench
// and Intruder share: the four program versions (Mode), the runtime and
// view layout, the worker threads and the per-view statistics; each
// application supplies only its workload. Watch is the livelock watchdog
// every run uses. The paper reports "livelock" cells for configurations
// where the encounter-time-locking TM stops making progress (Section
// III-D); the watchdog turns "no commits for a while" (or an absolute
// deadline) into a cancelled context plus a livelock verdict, so a run can
// be reported the way the paper's tables report it.
package progress

import (
	"context"
	"sync"
	"time"
)

// Watchdog cancels a context when the observed commit counter stalls or a
// deadline passes.
type Watchdog struct {
	cancel context.CancelFunc

	mu        sync.Mutex
	fired     bool
	reason    string
	stopCh    chan struct{}
	stopped   sync.Once
	waitGroup sync.WaitGroup
}

// Watch starts monitoring. sample must return a monotonically non-decreasing
// progress counter (e.g. total commits). If the counter does not move for
// stallWindow, or the run exceeds deadline, the returned context is
// cancelled and the watchdog records a livelock verdict. Non-positive
// durations disable the corresponding check.
func Watch(parent context.Context, sample func() int64, stallWindow, deadline time.Duration) (context.Context, *Watchdog) {
	ctx, cancel := context.WithCancel(parent)
	w := &Watchdog{cancel: cancel, stopCh: make(chan struct{})}

	tick := 10 * time.Millisecond
	if stallWindow > 0 && stallWindow/4 > tick {
		tick = stallWindow / 4
	}

	w.waitGroup.Add(1)
	go func() {
		defer w.waitGroup.Done()
		start := time.Now()
		last := sample()
		lastMove := start
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			now := time.Now()
			cur := sample()
			if cur != last {
				last = cur
				lastMove = now
			}
			if stallWindow > 0 && now.Sub(lastMove) >= stallWindow {
				w.fire("no commits for " + stallWindow.String())
				return
			}
			if deadline > 0 && now.Sub(start) >= deadline {
				w.fire("deadline " + deadline.String() + " exceeded")
				return
			}
		}
	}()
	return ctx, w
}

func (w *Watchdog) fire(reason string) {
	w.mu.Lock()
	w.fired = true
	w.reason = reason
	w.mu.Unlock()
	w.cancel()
}

// Stop ends monitoring and reports whether the watchdog declared livelock.
// It is safe to call multiple times.
func (w *Watchdog) Stop() bool {
	w.stopped.Do(func() { close(w.stopCh) })
	w.waitGroup.Wait()
	w.cancel() // release the derived context in the normal-completion path
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
}

// Reason describes why the watchdog fired ("" if it did not).
func (w *Watchdog) Reason() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reason
}
