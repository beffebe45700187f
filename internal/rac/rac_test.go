package rac

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{Threads: 8}
	p.fill()
	if p.InitialQuota != 8 || !p.Adaptive {
		t.Errorf("quota<1 must select adaptive at N: %+v", p)
	}
	if p.HighDelta != 1.0 || p.LowDelta != 0.5 || p.AdjustEvery != 256 || p.ProbeAtLockEvery != 8 {
		t.Errorf("defaults wrong: %+v", p)
	}
	p2 := Params{Threads: 4, InitialQuota: 99}
	p2.fill()
	if p2.InitialQuota != 4 {
		t.Errorf("quota must be clamped to N, got %d", p2.InitialQuota)
	}
	if p2.Adaptive {
		t.Error("static quota must not enable adaptive")
	}
}

func TestParamsInvalidThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Threads=0 did not panic")
		}
	}()
	New(Params{Threads: 0})
}

func TestEnterExitBasic(t *testing.T) {
	c := New(Params{Threads: 4, InitialQuota: 2})
	ctx := context.Background()
	m1, err := c.Enter(ctx)
	if err != nil || m1 != ModeTM {
		t.Fatalf("Enter: %v %v", m1, err)
	}
	if c.InFlight() != 1 {
		t.Errorf("InFlight = %d", c.InFlight())
	}
	c.Exit(m1, Committed, time.Millisecond)
	if c.InFlight() != 0 {
		t.Errorf("InFlight after exit = %d", c.InFlight())
	}
	tot := c.Totals()
	if tot.Commits != 1 || tot.SuccessNs != int64(time.Millisecond) {
		t.Errorf("totals = %+v", tot)
	}
}

func TestLockModeAtQuotaOne(t *testing.T) {
	c := New(Params{Threads: 4, InitialQuota: 1})
	m, err := c.Enter(context.Background())
	if err != nil || m != ModeLock {
		t.Fatalf("Enter at Q=1: mode=%v err=%v", m, err)
	}
	c.Exit(m, Committed, time.Microsecond)
}

func TestQuotaNeverExceeded(t *testing.T) {
	const n, q, iters = 8, 3, 200
	c := New(Params{Threads: n, InitialQuota: q})
	var inside, maxInside, violations atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m, err := c.Enter(context.Background())
				if err != nil {
					t.Errorf("Enter: %v", err)
					return
				}
				cur := inside.Add(1)
				for {
					old := maxInside.Load()
					if cur <= old || maxInside.CompareAndSwap(old, cur) {
						break
					}
				}
				if cur > q {
					violations.Add(1)
				}
				inside.Add(-1)
				c.Exit(m, Committed, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if violations.Load() > 0 {
		t.Errorf("%d admissions above quota (max inside %d > %d)",
			violations.Load(), maxInside.Load(), q)
	}
	if got := c.Totals().Commits; got != n*iters {
		t.Errorf("commits = %d, want %d", got, n*iters)
	}
}

func TestLockModeIsExclusive(t *testing.T) {
	const n = 8
	c := New(Params{Threads: n, InitialQuota: 1})
	var inside, violations atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m, _ := c.Enter(context.Background())
				if m != ModeLock {
					violations.Add(1)
				}
				if inside.Add(1) > 1 {
					violations.Add(1)
				}
				inside.Add(-1)
				c.Exit(m, Committed, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if violations.Load() > 0 {
		t.Errorf("%d lock-mode exclusivity violations", violations.Load())
	}
}

func TestLockModeInterlockWithQuotaRaise(t *testing.T) {
	// While a ModeLock holder is inside, raising Q must not admit anyone.
	c := New(Params{Threads: 4, InitialQuota: 1})
	m, _ := c.Enter(context.Background())
	if m != ModeLock {
		t.Fatal("expected lock mode")
	}
	c.SetQuota(4)

	admitted := make(chan Mode, 1)
	go func() {
		m2, _ := c.Enter(context.Background())
		admitted <- m2
	}()
	select {
	case <-admitted:
		t.Fatal("admission while lock-mode holder inside")
	case <-time.After(20 * time.Millisecond):
	}
	c.Exit(m, Committed, time.Nanosecond)
	select {
	case m2 := <-admitted:
		if m2 != ModeTM {
			t.Errorf("post-lock admission mode = %v, want TM", m2)
		}
		c.Exit(m2, Committed, time.Nanosecond)
	case <-time.After(time.Second):
		t.Fatal("waiter never admitted after lock holder left")
	}
}

func TestEnterContextCancel(t *testing.T) {
	c := New(Params{Threads: 2, InitialQuota: 1})
	m, _ := c.Enter(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Enter(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Enter never returned")
	}
	c.Exit(m, Committed, time.Nanosecond)
	// Controller must still be usable.
	m2, err := c.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.Exit(m2, Committed, time.Nanosecond)
}

func TestDeltaEquation5(t *testing.T) {
	// δ(Q) = abortNs / (successNs · (Q−1)), Eq. 5 of the paper.
	tot := Totals{SuccessNs: 1000, AbortNs: 3000}
	if got := tot.Delta(4); got != 1.0 {
		t.Errorf("Delta(4) = %v, want 1.0", got)
	}
	if got := tot.Delta(2); got != 3.0 {
		t.Errorf("Delta(2) = %v, want 3.0", got)
	}
	if !math.IsNaN(tot.Delta(1)) {
		t.Error("Delta(1) must be NaN (paper's N/A)")
	}
	if !math.IsNaN(Totals{}.Delta(4)) {
		t.Error("Delta with zero success time must be NaN")
	}
}

func TestDeltaQuick(t *testing.T) {
	// Property: δ scales linearly in abort time and inversely in (Q-1).
	prop := func(abortNs, successNs uint32, q uint8) bool {
		Q := int(q)%15 + 2 // 2..16
		tot := Totals{SuccessNs: int64(successNs) + 1, AbortNs: int64(abortNs)}
		d := tot.Delta(Q)
		want := float64(tot.AbortNs) / (float64(tot.SuccessNs) * float64(Q-1))
		return math.Abs(d-want) < 1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// driveWindow pushes one full adjustment window with the given per-attempt
// outcome mix through the controller.
func driveWindow(c *Controller, commitNs, abortNs time.Duration) {
	for i := int64(0); i < c.params.AdjustEvery; i++ {
		m, _ := c.Enter(context.Background())
		if abortNs > 0 && i%2 == 0 {
			c.Exit(m, Aborted, abortNs)
		} else {
			c.Exit(m, Committed, commitNs)
		}
	}
}

func TestAdaptiveHalvesOnHighDelta(t *testing.T) {
	c := New(Params{Threads: 16, InitialQuota: 0, AdjustEvery: 64})
	if c.Quota() != 16 {
		t.Fatalf("adaptive start Q = %d, want 16", c.Quota())
	}
	// Aborts dominate: δ ≫ 1 → Q halves each window.
	driveWindow(c, time.Microsecond, 100*time.Millisecond)
	if got := c.Quota(); got != 8 {
		t.Errorf("after hot window Q = %d, want 8", got)
	}
	driveWindow(c, time.Microsecond, 100*time.Millisecond)
	if got := c.Quota(); got != 4 {
		t.Errorf("Q = %d, want 4", got)
	}
}

func TestAdaptiveDoublesOnLowDelta(t *testing.T) {
	c := New(Params{Threads: 16, InitialQuota: 2, Adaptive: true, AdjustEvery: 64})
	driveWindow(c, 10*time.Millisecond, 0)
	if got := c.Quota(); got != 4 {
		t.Errorf("after cold window Q = %d, want 4", got)
	}
	driveWindow(c, 10*time.Millisecond, 0)
	driveWindow(c, 10*time.Millisecond, 0)
	if got := c.Quota(); got != 16 {
		t.Errorf("Q = %d, want 16 (capped at N)", got)
	}
	driveWindow(c, 10*time.Millisecond, 0)
	if got := c.Quota(); got != 16 {
		t.Errorf("Q exceeded N: %d", got)
	}
}

func TestAdaptiveReachesLockModeAndProbes(t *testing.T) {
	c := New(Params{Threads: 4, InitialQuota: 2, Adaptive: true,
		AdjustEvery: 16, ProbeAtLockEvery: 2})
	// Hot: 2 → 1.
	driveWindow(c, time.Microsecond, 100*time.Millisecond)
	if got := c.Quota(); got != 1 {
		t.Fatalf("Q = %d, want 1", got)
	}
	// Two lock windows later the controller probes back up to 2.
	driveWindow(c, time.Millisecond, 0)
	driveWindow(c, time.Millisecond, 0)
	if got := c.Quota(); got != 2 {
		t.Errorf("Q = %d, want 2 (upward probe)", got)
	}
}

func TestStickyLockModeWithoutProbe(t *testing.T) {
	c := New(Params{Threads: 4, InitialQuota: 2, Adaptive: true,
		AdjustEvery: 16, ProbeAtLockEvery: -1})
	driveWindow(c, time.Microsecond, 100*time.Millisecond)
	if c.Quota() != 1 {
		t.Fatalf("Q = %d, want 1", c.Quota())
	}
	for i := 0; i < 5; i++ {
		driveWindow(c, time.Millisecond, 0)
	}
	if c.Quota() != 1 {
		t.Errorf("probe-disabled controller left lock mode: Q = %d", c.Quota())
	}
}

func TestMidDeltaHoldsQuota(t *testing.T) {
	// δ between LowDelta and HighDelta: hold.
	c := New(Params{Threads: 16, InitialQuota: 4, Adaptive: true,
		AdjustEvery: 2, HighDelta: 1.0, LowDelta: 0.5})
	// one abort of 2.1ms + one commit of 1ms: δ(4) = 2.1/(1*3) = 0.7.
	m, _ := c.Enter(context.Background())
	c.Exit(m, Aborted, 2100*time.Microsecond)
	m, _ = c.Enter(context.Background())
	c.Exit(m, Committed, time.Millisecond)
	if got := c.Quota(); got != 4 {
		t.Errorf("Q = %d, want 4 (hold)", got)
	}
}

func TestSetQuotaClamps(t *testing.T) {
	c := New(Params{Threads: 8, InitialQuota: 4})
	c.SetQuota(100)
	if c.Quota() != 8 {
		t.Errorf("Q = %d, want clamp to 8", c.Quota())
	}
	c.SetQuota(-3)
	if c.Quota() != 1 {
		t.Errorf("Q = %d, want clamp to 1", c.Quota())
	}
}

// TestSettledQuota: quotas are ranked by makespan residence, each accounted
// attempt adding d/Q at the quota in force, and ties go to the current quota,
// then to the lower one — no clock is read.
func TestSettledQuota(t *testing.T) {
	c := New(Params{Threads: 8, InitialQuota: 4})
	if got := c.SettledQuota(); got != 4 {
		t.Errorf("SettledQuota = %d, want 4", got)
	}
	run := func(d time.Duration) {
		t.Helper()
		mode, err := c.Enter(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c.Exit(mode, Committed, d)
	}
	run(40 * time.Millisecond) // 10ms at Q=4
	c.SetQuota(2)
	if got := c.SettledQuota(); got != 4 {
		t.Errorf("SettledQuota = %d, want 4 (Q=2 has accounted nothing)", got)
	}
	run(20 * time.Millisecond) // 10ms at Q=2: a tie, the current quota wins
	if got := c.SettledQuota(); got != 2 {
		t.Errorf("SettledQuota = %d, want 2 on a tie with the current quota", got)
	}
	c.SetQuota(8)
	for i := 0; i < 100; i++ { // map order must not decide the tie
		if got := c.SettledQuota(); got != 2 {
			t.Fatalf("SettledQuota = %d, want 2, the lower of the tied quotas", got)
		}
	}
	run(100 * time.Millisecond) // 12.5ms at Q=8
	if got := c.SettledQuota(); got != 8 {
		t.Errorf("SettledQuota = %d, want 8", got)
	}
	if c.QuotaMoves() != 2 {
		t.Errorf("QuotaMoves = %d, want 2", c.QuotaMoves())
	}
}

func TestRecordWithoutAdmission(t *testing.T) {
	c := New(Params{Threads: 4, InitialQuota: 4})
	c.Record(Committed, time.Millisecond)
	c.Record(Aborted, 2*time.Millisecond)
	tot := c.Totals()
	if tot.Commits != 1 || tot.Aborts != 1 ||
		tot.SuccessNs != int64(time.Millisecond) || tot.AbortNs != int64(2*time.Millisecond) {
		t.Errorf("totals = %+v", tot)
	}
	if c.InFlight() != 0 {
		t.Error("Record changed admission state")
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unbalanced Exit did not panic")
		}
	}()
	c := New(Params{Threads: 2, InitialQuota: 2})
	c.Exit(ModeTM, Committed, 0)
}

func TestAccessors(t *testing.T) {
	c := New(Params{Threads: 8, InitialQuota: 0})
	if !c.Adaptive() || c.Threads() != 8 {
		t.Errorf("accessors wrong: adaptive=%v threads=%d", c.Adaptive(), c.Threads())
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
	if ModeLock.String() != "lock" || ModeTM.String() != "tm" {
		t.Error("Mode stringer wrong")
	}
}
