// Package rac implements Restricted Admission Control (Leung, Chen, Huang:
// "Restricted Admission Control in View-Oriented Transactional Memory",
// J. Supercomputing 2012), the concurrency-control scheme each VOTM view
// runs independently.
//
// A controller admits at most Q threads into a view concurrently
// (1 ≤ Q ≤ N). At Q == 1 admission degenerates to a lock and the caller may
// run uninstrumented (lock-mode). The adaptive policy estimates contention
// with the paper's Equation 5,
//
//	δ(Q) = cycles_in_aborted_tx / (cycles_in_successful_tx · (Q−1)),
//
// over a sliding window, halving Q when δ(Q) > 1 and doubling it when δ(Q)
// is low (Observation 1). CPU cycles are approximated by monotonic
// nanoseconds; δ is a ratio, so the unit cancels.
package rac

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// ErrClosed is returned by Enter once the controller has been closed
// (its view was destroyed): no further admissions are granted.
var ErrClosed = errors.New("rac: controller closed")

// Mode says how an admitted thread must execute its transaction.
type Mode int

const (
	// ModeTM: run an instrumented transaction on the view's STM engine.
	ModeTM Mode = iota
	// ModeLock: the caller holds the view exclusively (Q was 1 at
	// admission); it may access the heap directly with no TM overhead.
	ModeLock
)

func (m Mode) String() string {
	if m == ModeLock {
		return "lock"
	}
	return "tm"
}

// Outcome of one admitted transaction attempt.
type Outcome int

const (
	// Committed: the attempt committed successfully.
	Committed Outcome = iota
	// Aborted: the attempt rolled back due to a conflict.
	Aborted
)

// Policy selects how the adaptive controller moves the quota.
type Policy int

const (
	// HalveDouble is the paper's RAC scheme: halve Q when δ(Q) > 1,
	// double it when δ(Q) is low — able to settle at interior quotas.
	HalveDouble Policy = iota
	// LockElision models the adaptive-lock / speculative-lock-elision
	// systems of the paper's §IV-B, which only choose between the two
	// extremes: exclusive access (Q = 1) under contention, or all threads
	// (Q = N) otherwise. The paper argues RAC is superior exactly because
	// the optimal quota can lie strictly between 1 and N.
	LockElision
)

func (p Policy) String() string {
	if p == LockElision {
		return "lock-elision"
	}
	return "halve-double"
}

// Params configures a Controller.
type Params struct {
	// Threads is N, the maximum number of threads (upper bound for Q).
	Threads int
	// InitialQuota is the starting Q. Values < 1 select the adaptive
	// policy starting at Q = Threads (the create_view(q) contract).
	InitialQuota int
	// Adaptive enables dynamic adjustment even when InitialQuota ≥ 1.
	Adaptive bool
	// HighDelta halves Q when window δ(Q) exceeds it. Default 1.0 (Eq. 5).
	HighDelta float64
	// LowDelta doubles Q when window δ(Q) falls below it. Default 0.5.
	LowDelta float64
	// AdjustEvery is the adjustment window length in completed attempts.
	// Default 256.
	AdjustEvery int64
	// ProbeAtLockEvery controls upward probing out of Q == 1, where δ(Q)
	// is undefined: after this many consecutive windows at Q == 1, Q is
	// raised to 2 to re-measure contention. Negative disables probing
	// (sticky lock mode); 0 takes the default of 8.
	ProbeAtLockEvery int
	// OnQuotaChange, when non-nil, is invoked after every quota change
	// (adaptive or manual) with the previous and new values. It runs with
	// the controller's lock held: it must be fast and must not call back
	// into the controller.
	OnQuotaChange func(from, to int)
	// Policy selects the adaptive movement rule. Default HalveDouble
	// (the paper's RAC); LockElision is the §IV-B adaptive-lock baseline.
	Policy Policy
}

func (p *Params) fill() {
	if p.Threads <= 0 {
		panic("rac: Params.Threads must be positive")
	}
	if p.InitialQuota < 1 {
		p.InitialQuota = p.Threads
		p.Adaptive = true
	}
	if p.InitialQuota > p.Threads {
		p.InitialQuota = p.Threads
	}
	if p.HighDelta == 0 {
		p.HighDelta = 1.0
	}
	if p.LowDelta == 0 {
		p.LowDelta = 0.5
	}
	if p.AdjustEvery == 0 {
		p.AdjustEvery = 256
	}
	if p.ProbeAtLockEvery == 0 {
		p.ProbeAtLockEvery = 8
	}
}

// Totals are cumulative per-view statistics, the raw material for the
// paper's table rows (#abort, #tx, CPUcycles_aborted, CPUcycles_successful).
type Totals struct {
	Commits   int64
	Aborts    int64
	SuccessNs int64 // time spent in attempts that committed
	AbortNs   int64 // time spent in attempts that aborted

	// Escalations counts transactions that exhausted their conflict-retry
	// budget and ran to completion in exclusive lock mode — the starvation
	// escape hatch (each escalation is one starved transaction rescued).
	Escalations int64
	// Panics counts user panics that unwound a transaction body; every one
	// was rolled back and its admission slot released before re-raising.
	Panics int64

	// Groups counts committed group transactions — single admissions that
	// carried several independent logical operations (votmd's group-commit
	// shard workers). GroupOps is the total operation count across them, so
	// GroupOps/Groups is the mean group size: how much per-transaction
	// overhead (one RAC admission, one begin/commit, at Q = 1 one lock
	// acquisition) the batching amortized.
	Groups   int64
	GroupOps int64
}

// MeanGroup returns the mean committed group size (GroupOps / Groups), or
// NaN when no group has committed.
func (t Totals) MeanGroup() float64 {
	if t.Groups == 0 {
		return math.NaN()
	}
	return float64(t.GroupOps) / float64(t.Groups)
}

// Delta evaluates Equation 5 over the totals at quota q.
//
// It returns NaN when q <= 1 or nothing has committed yet: Eq. 5 divides by
// (q−1), so δ is undefined at the lock-mode quota — the paper's "N/A"
// cells. NaN is the single sentinel shared by every δ implementation in the
// repo (theory.DeltaQ, racsim.Workload.Delta); callers must treat it as
// "no signal", never compare it (all comparisons with NaN are false, so
// adaptive logic holds Q).
func (t Totals) Delta(q int) float64 {
	if q <= 1 || t.SuccessNs == 0 {
		return math.NaN()
	}
	return float64(t.AbortNs) / (float64(t.SuccessNs) * float64(q-1))
}

// Controller is one view's admission controller.
type Controller struct {
	mu         sync.Mutex
	params     Params
	q          int
	p          int // threads currently admitted
	lockActive bool
	paused     bool // admissions suspended (engine switch or escalation)
	closed     bool // view destroyed: admissions permanently rejected
	waiters    int
	gate       chan struct{}

	// pauseSem serializes pausers (engine switches and escalations): without
	// it two concurrent PauseAndDrain calls could both observe p == 0 and
	// both believe they hold the view exclusively.
	pauseSem chan struct{}

	totals Totals

	// adjustment window
	winSuccessNs int64
	winAbortNs   int64
	winDone      int64
	lockWindows  int // consecutive windows spent at Q == 1

	// quota residence tracking (time spent at each Q)
	residence  map[int]time.Duration
	lastChange time.Time
	quotaMoves int64
}

// New creates a controller. See Params for the adaptive-policy contract.
func New(p Params) *Controller {
	p.fill()
	return &Controller{
		params:     p,
		q:          p.InitialQuota,
		gate:       make(chan struct{}),
		pauseSem:   make(chan struct{}, 1),
		residence:  make(map[int]time.Duration),
		lastChange: time.Now(),
	}
}

// Enter blocks until the caller is admitted to the view or ctx is done.
// The returned Mode tells the caller whether it may run uninstrumented.
//
// Invariants: at most Q threads are admitted at once; while a ModeLock
// holder is inside, nothing else is admitted (even if Q was raised
// concurrently), so an uninstrumented transaction can never run beside an
// instrumented one.
func (c *Controller) Enter(ctx context.Context) (Mode, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return ModeTM, ErrClosed
		}
		if !c.paused && !c.lockActive && c.p < c.q {
			c.p++
			mode := ModeTM
			if c.q == 1 {
				mode = ModeLock
				c.lockActive = true
			}
			c.mu.Unlock()
			return mode, nil
		}
		gate := c.gate
		c.waiters++
		c.mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			c.mu.Lock()
			c.waiters--
			c.mu.Unlock()
			return ModeTM, ctx.Err()
		}
		c.mu.Lock()
		c.waiters--
	}
}

// Exit records the attempt's outcome and releases the admission slot.
// mode must be the Mode returned by the matching Enter; d is the wall time
// the attempt took (the cycles proxy for Eq. 5).
func (c *Controller) Exit(mode Mode, outcome Outcome, d time.Duration) {
	ns := d.Nanoseconds()
	c.mu.Lock()
	c.p--
	if c.p < 0 {
		c.mu.Unlock()
		panic("rac: Exit without matching Enter")
	}
	if mode == ModeLock {
		c.lockActive = false
	}
	switch outcome {
	case Committed:
		c.totals.Commits++
		c.totals.SuccessNs += ns
		c.winSuccessNs += ns
	case Aborted:
		c.totals.Aborts++
		c.totals.AbortNs += ns
		c.winAbortNs += ns
	}
	c.winDone++
	if c.params.Adaptive && c.winDone >= c.params.AdjustEvery {
		c.adjustLocked()
	}
	c.broadcastLocked()
	c.mu.Unlock()
}

// adjustLocked applies Observation 1 to the finished window. Caller holds mu.
func (c *Controller) adjustLocked() {
	winTotals := Totals{SuccessNs: c.winSuccessNs, AbortNs: c.winAbortNs}
	delta := winTotals.Delta(c.q)
	switch {
	case c.q == 1:
		c.lockWindows++
		if c.params.ProbeAtLockEvery > 0 && c.lockWindows >= c.params.ProbeAtLockEvery {
			c.setQuotaLocked(2)
			c.lockWindows = 0
		}
	case delta > c.params.HighDelta:
		if c.params.Policy == LockElision {
			c.setQuotaLocked(1)
		} else {
			c.setQuotaLocked(c.q / 2)
		}
	case delta < c.params.LowDelta:
		if c.params.Policy == LockElision {
			c.setQuotaLocked(c.params.Threads)
		} else {
			c.setQuotaLocked(c.q * 2)
		}
	}
	c.winSuccessNs, c.winAbortNs, c.winDone = 0, 0, 0
}

func (c *Controller) setQuotaLocked(q int) {
	if q < 1 {
		q = 1
	}
	if q > c.params.Threads {
		q = c.params.Threads
	}
	if q == c.q {
		return
	}
	now := time.Now()
	c.residence[c.q] += now.Sub(c.lastChange)
	c.lastChange = now
	prev := c.q
	c.q = q
	c.quotaMoves++
	if q != 1 {
		c.lockWindows = 0
	}
	if c.params.OnQuotaChange != nil {
		c.params.OnQuotaChange(prev, q)
	}
}

func (c *Controller) broadcastLocked() {
	if c.waiters > 0 {
		close(c.gate)
		c.gate = make(chan struct{})
	}
}

// PauseAndDrain suspends new admissions and blocks until every admitted
// thread has exited — the quiescence point for an engine switch or an
// escalated (exclusive) execution. Pausers are mutually exclusive: a second
// PauseAndDrain blocks until the first pauser Resumes, so two callers can
// never both believe they hold the view exclusively.
//
// On success the caller owns the pause and must call Resume exactly once.
// On error (ctx cancelled while waiting or draining) the pause has been
// rolled back; the caller must not call Resume (a spurious Resume is
// harmless but releases nothing).
func (c *Controller) PauseAndDrain(ctx context.Context) error {
	select {
	case c.pauseSem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	c.mu.Lock()
	c.paused = true
	for c.p > 0 {
		gate := c.gate
		c.waiters++
		c.mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			c.mu.Lock()
			c.waiters--
			c.paused = false
			c.broadcastLocked()
			c.mu.Unlock()
			<-c.pauseSem
			return ctx.Err()
		}
		c.mu.Lock()
		c.waiters--
	}
	c.mu.Unlock()
	return nil
}

// Resume lifts a successful PauseAndDrain suspension and releases pause
// ownership to the next waiting pauser, if any.
func (c *Controller) Resume() {
	c.mu.Lock()
	owned := c.paused
	c.paused = false
	c.broadcastLocked()
	c.mu.Unlock()
	if owned {
		select {
		case <-c.pauseSem:
		default:
		}
	}
}

// Close permanently rejects admissions (the view was destroyed) and wakes
// every waiter so blocked Enter calls return ErrClosed promptly instead of
// hanging until their context expires.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.broadcastLocked()
	c.mu.Unlock()
}

// RecordEscalated accounts one escalated execution: a transaction that
// exhausted its conflict-retry budget and ran in exclusive lock mode while
// admissions were drained (so it never passed Enter/Exit).
func (c *Controller) RecordEscalated(outcome Outcome, d time.Duration) {
	ns := d.Nanoseconds()
	c.mu.Lock()
	c.totals.Escalations++
	switch outcome {
	case Committed:
		c.totals.Commits++
		c.totals.SuccessNs += ns
	case Aborted:
		c.totals.Aborts++
		c.totals.AbortNs += ns
	}
	c.mu.Unlock()
}

// RecordGroup accounts one committed group transaction of ops independent
// logical operations. The attempt itself is accounted normally via Exit (or
// RecordEscalated); this only feeds the Groups/GroupOps batching meters.
func (c *Controller) RecordGroup(ops int64) {
	c.mu.Lock()
	c.totals.Groups++
	c.totals.GroupOps += ops
	c.mu.Unlock()
}

// RecordPanic counts a user panic that unwound a transaction body on this
// view (the attempt itself is accounted separately as Aborted via Exit or
// Record).
func (c *Controller) RecordPanic() {
	c.mu.Lock()
	c.totals.Panics++
	c.mu.Unlock()
}

// Record accounts an attempt's outcome without admission control. It is
// used by views created with admission control disabled (the paper's
// "multi-TM" and plain "TM" versions), so their table statistics are
// collected identically to RAC-controlled views.
func (c *Controller) Record(outcome Outcome, d time.Duration) {
	ns := d.Nanoseconds()
	c.mu.Lock()
	switch outcome {
	case Committed:
		c.totals.Commits++
		c.totals.SuccessNs += ns
	case Aborted:
		c.totals.Aborts++
		c.totals.AbortNs += ns
	}
	c.mu.Unlock()
}

// Quota returns the current admission quota Q.
func (c *Controller) Quota() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q
}

// SetQuota sets Q manually (the create_view static-quota path and tests).
func (c *Controller) SetQuota(q int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setQuotaLocked(q)
	c.broadcastLocked()
}

// InFlight returns the number of currently admitted threads.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p
}

// Adaptive reports whether dynamic adjustment is enabled.
func (c *Controller) Adaptive() bool { return c.params.Adaptive }

// Threads returns N.
func (c *Controller) Threads() int { return c.params.Threads }

// Totals returns a copy of the cumulative statistics.
func (c *Controller) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// QuotaMoves returns how many times the adaptive policy changed Q.
func (c *Controller) QuotaMoves() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quotaMoves
}

// SettledQuota returns the quota the controller spent the most time at —
// the value reported in the paper's adaptive tables (Table VI and X "Q"
// columns) — breaking ties toward the current quota.
func (c *Controller) SettledQuota() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := make(map[int]time.Duration, len(c.residence)+1)
	for q, d := range c.residence {
		res[q] = d
	}
	res[c.q] += time.Since(c.lastChange)
	best, bestD := c.q, res[c.q]
	for q, d := range res {
		if d > bestD {
			best, bestD = q, d
		}
	}
	return best
}

func (c *Controller) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("rac.Controller(Q=%d P=%d N=%d adaptive=%v)",
		c.q, c.p, c.params.Threads, c.params.Adaptive)
}
