// Adaptive group commit: a per-shard controller that closes the paper's
// contention-feedback loop at the batching layer. RAC already samples the
// signals — Eq. 5's δ(Q), the window abort rate, the quota — and the queue
// provides the rest (depth, per-group service time); the controller turns
// them into the effective group size and an admission threshold each drain
// cycle. Deep standing queues with low contention deepen batching toward
// BatchMax; shallow queues or contended windows collapse it to latency-first
// (group size 1). How many groups share a flush is not the controller's to
// set: the shard log's flusher (group.go) takes whatever was appended when a
// flush starts, one group on an idle log and many on a busy one. The
// admission threshold bounds the queueing delay a request can accumulate, so
// the shard sheds load with BUSY before p999 explodes rather than only when
// the bounded queue finally fills.
package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"votm/internal/rac"
)

// adaptParams configures a batchController. Zero values take the documented
// defaults.
type adaptParams struct {
	// BatchMax is the group-size ceiling (Config.BatchMax).
	BatchMax int
	// QueueCap is the queue bound (the admission limit's ceiling).
	QueueCap int
	// Hysteresis is how many consecutive drain cycles must agree before the
	// group size moves — the anti-oscillation guard. Default 3.
	Hysteresis int
	// HighDelta marks a RAC window contended when its δ(Q) exceeds it;
	// contended windows drive the group size down (wide batches under
	// conflict pressure re-execute more work per abort). Default 1.0, the
	// same bar Eq. 5 gives RAC itself. NaN δ (Q ≤ 1, no window yet) never
	// compares true and therefore never votes.
	HighDelta float64
	// HighAbortRate marks a window contended by commit/abort count when
	// δ(Q) is unavailable (lock mode). Default 0.5.
	HighAbortRate float64
	// LatencyBudgetNs is the target bound on queueing delay: the admission
	// threshold is the queue depth whose estimated drain time (depth ×
	// per-op service EWMA) stays inside it. Default 20ms.
	LatencyBudgetNs int64
	// EwmaShift is the per-op service-time EWMA weight, 1/2^shift per
	// observation. Default 3 (1/8).
	EwmaShift uint
}

func (p *adaptParams) fill() {
	if p.BatchMax <= 0 {
		p.BatchMax = 16
	}
	if p.QueueCap <= 0 {
		p.QueueCap = 128
	}
	if p.Hysteresis <= 0 {
		p.Hysteresis = 3
	}
	if p.HighDelta == 0 {
		p.HighDelta = 1.0
	}
	if p.HighAbortRate == 0 {
		p.HighAbortRate = 0.5
	}
	if p.LatencyBudgetNs <= 0 {
		p.LatencyBudgetNs = int64(20 * time.Millisecond)
	}
	if p.EwmaShift == 0 {
		p.EwmaShift = 3
	}
}

// batchObs is one drain cycle's observation.
type batchObs struct {
	// Depth is the queue depth left after the drain claimed its batch —
	// the standing load the next cycle faces.
	Depth int
	// GroupOps is how many requests the drain executed.
	GroupOps int
	// ServiceNs is the time the drain's execution took — execution only: a
	// worker's run contains no flush, and the worker subtracts any stall on a
	// full completion list, so the admission estimate (depth × per-op
	// service) prices the shard's work, not the disk's.
	ServiceNs int64
	// Delta is the RAC window δ(Q); NaN means no signal (Q ≤ 1 or no
	// completed window).
	Delta float64
	// AbortRate is the RAC window's aborted share of completed attempts.
	AbortRate float64
}

// batchController is the deterministic core: a pure state machine from
// observation traces to (group size, admission limit), with no clocks and no
// locks, so tests can script exact traces (adapt_test.go). Movement is
// geometric with hysteresis: the deepen threshold (depth ≥ 2·eff) and the
// collapse threshold (depth < eff/2) are a factor 4 apart, so no constant
// trace can satisfy both across one move — combined with the consecutive-
// observation requirement the controller cannot oscillate on a boundary.
// Depths at or beyond 4·eff deepen without waiting out the streak (the
// fast ramp): they are far from the boundary the hysteresis guards, and a
// post-move collapse would still need depth < eff, which a ≥ 4·eff trace
// can never satisfy.
type batchController struct {
	p        adaptParams
	eff      int // current group-size bound
	up, down int // consecutive observations voting to deepen / collapse
	ewmaOpNs int64
}

func newBatchController(p adaptParams) *batchController {
	p.fill()
	return &batchController{p: p, eff: 1}
}

// observe feeds one drain cycle. Contention (δ(Q) over HighDelta or an
// abort-heavy window) always votes to collapse: wide groups under conflict
// pressure re-execute the whole group per abort, and latency-first is the
// safe mode while RAC is shrinking its quota anyway.
func (c *batchController) observe(o batchObs) {
	if o.GroupOps > 0 && o.ServiceNs > 0 {
		per := o.ServiceNs / int64(o.GroupOps)
		if c.ewmaOpNs == 0 {
			c.ewmaOpNs = per
		} else {
			c.ewmaOpNs += (per - c.ewmaOpNs) >> c.p.EwmaShift
		}
	}
	contended := o.Delta > c.p.HighDelta || o.AbortRate > c.p.HighAbortRate
	switch {
	case contended || o.Depth < c.eff/2:
		c.up = 0
		if c.eff == 1 {
			c.down = 0
			return
		}
		if c.down++; c.down >= c.p.Hysteresis {
			c.eff /= 2
			c.down = 0
		}
	case o.Depth >= 2*c.eff && c.eff < c.p.BatchMax:
		c.down = 0
		// Fast ramp: a queue at least 4× the current group is nowhere near
		// the deepen/collapse boundary the hysteresis guards, so waiting out
		// the streak only prolongs warmup (and costs real throughput while
		// the controller climbs 1→BatchMax at startup). Single-step moves
		// near the boundary still need Hysteresis agreeing cycles.
		c.up++
		if o.Depth >= 4*c.eff || c.up >= c.p.Hysteresis {
			c.eff *= 2
			if c.eff > c.p.BatchMax {
				c.eff = c.p.BatchMax
			}
			c.up = 0
		}
	default:
		c.up, c.down = 0, 0
	}
}

// groupSize is the current effective group bound.
func (c *batchController) groupSize() int { return c.eff }

// admitLimit is the queue depth beyond which new arrivals should be shed
// with BUSY: the depth whose estimated drain time exceeds the latency
// budget. Before the service EWMA warms up there is no estimate and the
// full queue is admitted. The floor of two full groups keeps the gate from
// starving batching itself when per-op times spike transiently.
func (c *batchController) admitLimit() int {
	if c.ewmaOpNs <= 0 {
		return c.p.QueueCap
	}
	lim := int(c.p.LatencyBudgetNs / c.ewmaOpNs)
	if lim < 2*c.eff {
		lim = 2 * c.eff
	}
	if lim > c.p.QueueCap {
		lim = c.p.QueueCap
	}
	return lim
}

// admitUnbounded is the admission threshold of a controller-less shard: the
// gate never fires and only a full queue sheds load, the pre-adaptive
// behavior.
const admitUnbounded = math.MaxInt64

// shardController wraps a batchController for concurrent use: the shard's
// workers observe under a short mutex once per drain cycle, and the outputs
// are published through atomics so the dispatch hot path (admission check in
// conn.go) and rival workers read them without any lock. A nil
// *shardController — and one built with static=true — serves the static
// BatchMax behavior, so every pre-adaptive code path is unchanged.
type shardController struct {
	mu   sync.Mutex
	core *batchController // nil in static mode

	eff   atomic.Int64
	admit atomic.Int64
}

// newShardController builds a shard's controller. When adaptive is false the
// outputs are pinned to the static configuration.
func newShardController(adaptive bool, p adaptParams) *shardController {
	sc := &shardController{}
	if adaptive {
		sc.core = newBatchController(p)
		sc.eff.Store(int64(sc.core.groupSize()))
		sc.admit.Store(int64(sc.core.admitLimit()))
	} else {
		p.fill()
		sc.eff.Store(int64(p.BatchMax))
		sc.admit.Store(admitUnbounded)
	}
	return sc
}

// adaptive reports whether observations move this controller.
func (sc *shardController) adaptive() bool { return sc != nil && sc.core != nil }

// groupSize is the group bound a drain should honor.
func (sc *shardController) groupSize() int {
	if sc == nil {
		return 1
	}
	return int(sc.eff.Load())
}

// admitLimit is the queue depth at which dispatch sheds load with BUSY.
func (sc *shardController) admitLimit() int {
	if sc == nil {
		return admitUnbounded
	}
	return int(sc.admit.Load())
}

// observe feeds one drain cycle and republishes the outputs. No-op in
// static mode.
func (sc *shardController) observe(depth, ops int, service time.Duration, sig rac.Signal) {
	if !sc.adaptive() {
		return
	}
	sc.mu.Lock()
	sc.core.observe(batchObs{
		Depth:     depth,
		GroupOps:  ops,
		ServiceNs: service.Nanoseconds(),
		Delta:     sig.Delta,
		AbortRate: sig.AbortRate,
	})
	eff, admit := sc.core.groupSize(), sc.core.admitLimit()
	sc.mu.Unlock()
	sc.eff.Store(int64(eff))
	sc.admit.Store(int64(admit))
}
