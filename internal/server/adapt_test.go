package server

import (
	"math"
	"testing"
	"time"

	"votm/internal/rac"
)

// calm is an uncontended observation at the given standing depth: no δ(Q)
// signal (NaN, like a Q≤1 window), no aborts, a fixed 1µs/op service time.
func calm(depth int) batchObs {
	return batchObs{Depth: depth, GroupOps: 4, ServiceNs: 4000, Delta: math.NaN()}
}

// feed runs n copies of o through the controller.
func feed(c *batchController, o batchObs, n int) {
	for i := 0; i < n; i++ {
		c.observe(o)
	}
}

// TestBatchControllerDeepens drives standing queues with no contention and
// checks the group size climbs geometrically to BatchMax: immediately (one
// observation per doubling) when the depth is unambiguous (≥ 4·eff, the
// fast ramp that keeps warmup cheap), and only after Hysteresis consecutive
// agreeing observations when the depth sits between the deepen threshold
// and the fast-ramp bar.
func TestBatchControllerDeepens(t *testing.T) {
	t.Run("fastramp", func(t *testing.T) {
		c := newBatchController(adaptParams{BatchMax: 16, QueueCap: 128, Hysteresis: 3})
		if got := c.groupSize(); got != 1 {
			t.Fatalf("initial group size = %d, want 1 (latency-first)", got)
		}
		for _, next := range []int{2, 4, 8, 16} {
			c.observe(calm(1000)) // depth ≥ 4·eff at every step: no streak needed
			if got := c.groupSize(); got != next {
				t.Fatalf("fast ramp group size = %d, want %d", got, next)
			}
		}
		// At the ceiling further deep observations are a no-op.
		feed(c, calm(1000), 10)
		if got := c.groupSize(); got != 16 {
			t.Fatalf("group size = %d, want capped at BatchMax 16", got)
		}
	})
	t.Run("hysteresis", func(t *testing.T) {
		c := newBatchController(adaptParams{BatchMax: 16, QueueCap: 128, Hysteresis: 3})
		want := 1
		for _, next := range []int{2, 4, 8, 16} {
			// Depth in [2·eff, 4·eff): a deepen vote, but not fast-ramp deep.
			boundary := calm(2*want + 1)
			// Two agreeing observations must NOT move it yet.
			feed(c, boundary, 2)
			if got := c.groupSize(); got != want {
				t.Fatalf("after 2 deep observations group size = %d, want still %d", got, want)
			}
			// The third completes the streak.
			c.observe(boundary)
			if got := c.groupSize(); got != next {
				t.Fatalf("after hysteresis group size = %d, want %d", got, next)
			}
			want = next
		}
	})
}

// TestBatchControllerCollapsesOnContention checks a contended window — by
// δ(Q) or by abort rate — votes the group size down to 1 regardless of depth.
func TestBatchControllerCollapsesOnContention(t *testing.T) {
	for name, mark := range map[string]func(*batchObs){
		"delta":     func(o *batchObs) { o.Delta = 2.5 },
		"abortRate": func(o *batchObs) { o.AbortRate = 0.8 },
	} {
		c := newBatchController(adaptParams{BatchMax: 16, QueueCap: 128, Hysteresis: 3})
		feed(c, calm(1000), 12) // deepen to 16
		if got := c.groupSize(); got != 16 {
			t.Fatalf("%s: setup group size = %d, want 16", name, got)
		}
		hot := calm(1000) // depth says deepen — contention must override it
		mark(&hot)
		for want := 16; want > 1; want /= 2 {
			feed(c, hot, 3)
			if got := c.groupSize(); got != want/2 {
				t.Fatalf("%s: after contended streak group size = %d, want %d", name, got, want/2)
			}
		}
		// Floor: already latency-first, stays there.
		feed(c, hot, 6)
		if got := c.groupSize(); got != 1 {
			t.Fatalf("%s: group size = %d, want floor 1", name, got)
		}
	}
}

// TestBatchControllerCollapsesOnShallowQueue checks draining load (depth
// below eff/2) walks the group size back down without any contention signal.
func TestBatchControllerCollapsesOnShallowQueue(t *testing.T) {
	c := newBatchController(adaptParams{BatchMax: 8, QueueCap: 128, Hysteresis: 2})
	feed(c, calm(1000), 6) // 1 -> 2 -> 4 -> 8
	if got := c.groupSize(); got != 8 {
		t.Fatalf("setup group size = %d, want 8", got)
	}
	feed(c, calm(0), 2)
	if got := c.groupSize(); got != 4 {
		t.Fatalf("after empty-queue streak group size = %d, want 4", got)
	}
	feed(c, calm(0), 4)
	if got := c.groupSize(); got != 1 {
		t.Fatalf("group size = %d, want collapsed to 1", got)
	}
}

// TestBatchControllerHysteresisNoOscillation scripts boundary traces — depths
// pinned between the collapse threshold (eff/2) and the deepen threshold
// (2·eff) — and checks the group size never moves, plus that an interrupted
// streak resets rather than accumulating across neutral observations.
func TestBatchControllerHysteresisNoOscillation(t *testing.T) {
	c := newBatchController(adaptParams{BatchMax: 16, QueueCap: 128, Hysteresis: 3})
	feed(c, calm(1000), 2) // fast-ramp to 4
	if got := c.groupSize(); got != 4 {
		t.Fatalf("setup group size = %d, want 4", got)
	}
	// Any constant depth in [eff/2, 2·eff) = [2, 8) is neutral forever.
	for _, depth := range []int{2, 4, 7} {
		feed(c, calm(depth), 50)
		if got := c.groupSize(); got != 4 {
			t.Fatalf("depth %d held 50 cycles: group size = %d, want 4 (no move)", depth, got)
		}
	}
	// Alternating boundary deepen votes (depth below the fast-ramp bar) and
	// collapse votes never complete a streak.
	for i := 0; i < 30; i++ {
		c.observe(calm(9)) // vote deepen: 9 ∈ [2·4, 4·4)
		c.observe(calm(0)) // vote collapse
	}
	if got := c.groupSize(); got != 4 {
		t.Fatalf("alternating votes: group size = %d, want 4 (streaks reset)", got)
	}
	// Two deepen votes, one neutral, two more: still no move (streak reset).
	feed(c, calm(9), 2)
	c.observe(calm(4))
	feed(c, calm(9), 2)
	if got := c.groupSize(); got != 4 {
		t.Fatalf("interrupted streak moved the group size to %d, want 4", got)
	}
}

// TestBatchControllerAdmitLimit checks the admission threshold: whole queue
// before the service EWMA warms, then LatencyBudget/ewma clamped to
// [2·eff, QueueCap].
func TestBatchControllerAdmitLimit(t *testing.T) {
	p := adaptParams{BatchMax: 16, QueueCap: 128, Hysteresis: 3, LatencyBudgetNs: int64(time.Millisecond)}
	c := newBatchController(p)
	if got := c.admitLimit(); got != 128 {
		t.Fatalf("pre-warm admit limit = %d, want full QueueCap 128", got)
	}
	// 10µs/op: 1ms budget admits 100.
	c.observe(batchObs{Depth: 4, GroupOps: 1, ServiceNs: 10_000, Delta: math.NaN()})
	if got := c.admitLimit(); got != 100 {
		t.Fatalf("admit limit = %d, want 1ms / 10µs = 100", got)
	}
	// 4ns/op would admit 250k: clamped to QueueCap. The first observation
	// seeds the EWMA, so repeat until it converges under 7.8µs (128 ops/ms).
	fast := batchObs{Depth: 4, GroupOps: 1000, ServiceNs: 4000, Delta: math.NaN()}
	feed(c, fast, 200)
	if got := c.admitLimit(); got != 128 {
		t.Fatalf("fast-op admit limit = %d, want clamped to QueueCap 128", got)
	}
	// 1ms/op would admit 1: floored at two full groups.
	slow := batchObs{Depth: 0, GroupOps: 1, ServiceNs: int64(time.Millisecond), Delta: math.NaN()}
	feed(c, slow, 400)
	if got, want := c.admitLimit(), 2*c.groupSize(); got != want {
		t.Fatalf("slow-op admit limit = %d, want floor 2·eff = %d", got, want)
	}
}

// TestShardControllerModes checks the concurrency wrapper: static mode pins
// the static configuration, adaptive mode republishes the core's outputs,
// and a nil controller serves the degenerate defaults.
func TestShardControllerModes(t *testing.T) {
	static := newShardController(false, adaptParams{BatchMax: 16, QueueCap: 128})
	if static.adaptive() {
		t.Fatal("static controller reports adaptive")
	}
	if got := static.groupSize(); got != 16 {
		t.Fatalf("static group size = %d, want BatchMax 16", got)
	}
	if got := static.admitLimit(); got != admitUnbounded {
		t.Fatalf("static admit limit = %d, want unbounded", got)
	}
	// Observations must not move a static controller.
	static.observe(1000, 4, time.Millisecond, rac.Signal{Delta: math.NaN()})
	if got := static.groupSize(); got != 16 {
		t.Fatalf("static group size moved to %d after observe", got)
	}

	ad := newShardController(true, adaptParams{BatchMax: 16, QueueCap: 128, Hysteresis: 1})
	if !ad.adaptive() {
		t.Fatal("adaptive controller reports static")
	}
	if got := ad.groupSize(); got != 1 {
		t.Fatalf("adaptive initial group size = %d, want 1", got)
	}
	ad.observe(1000, 4, 4*time.Microsecond, rac.Signal{Delta: math.NaN()})
	if got := ad.groupSize(); got != 2 {
		t.Fatalf("adaptive group size = %d after deep observation, want 2", got)
	}

	var nilCtl *shardController
	if nilCtl.adaptive() {
		t.Fatal("nil controller reports adaptive")
	}
	if got := nilCtl.groupSize(); got != 1 {
		t.Fatalf("nil controller group size = %d, want 1", got)
	}
	if got := nilCtl.admitLimit(); got != admitUnbounded {
		t.Fatalf("nil controller admit limit = %d, want unbounded", got)
	}
}

// TestQueueHighWaterWindow drives the windowed high-water rotation with
// explicit window indices: the mark decays two windows after the load does
// (current + previous are reported), while the lifetime mark never decays —
// the regression for the forever-monotonic STATS gauge.
func TestQueueHighWaterWindow(t *testing.T) {
	sh := &shard{}
	recent := func() uint64 { return max(sh.queueHWCur.Load(), sh.queueHWPrev.Load()) }

	sh.rotateHW(100)
	maxInto(&sh.queueHW, 9)
	maxInto(&sh.queueHWCur, 9)
	if got := recent(); got != 9 {
		t.Fatalf("same window: recent = %d, want 9", got)
	}

	// Next window: the finished window's mark is still reported...
	sh.rotateHW(101)
	if got := recent(); got != 9 {
		t.Fatalf("one window later: recent = %d, want 9 (previous window counts)", got)
	}
	maxInto(&sh.queueHWCur, 3)
	if got := recent(); got != 9 {
		t.Fatalf("recent = %d, want 9 (max of windows)", got)
	}

	// ...and a window with no higher load lets it decay.
	sh.rotateHW(102)
	if got := recent(); got != 3 {
		t.Fatalf("two windows later: recent = %d, want decayed to 3", got)
	}

	// An idle gap (several windows with no traffic) reports zero: nothing
	// recent happened, regardless of how bad the spike once was.
	sh.rotateHW(110)
	if got := recent(); got != 0 {
		t.Fatalf("after idle gap: recent = %d, want 0", got)
	}
	if got := sh.queueHW.Load(); got != 9 {
		t.Fatalf("lifetime mark = %d, want 9 (never decays)", got)
	}

	// Stale rotation attempts (an older window index racing in) must not
	// clobber the current window.
	maxInto(&sh.queueHWCur, 5)
	sh.rotateHW(109)
	if got := recent(); got != 5 {
		t.Fatalf("stale rotate clobbered the window: recent = %d, want 5", got)
	}
}
