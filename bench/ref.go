package main

import (
	"math"
	"time"
)

// The memory-latency reference. This box's speed swings by ±15 % over
// minutes, and the swing is in the memory hierarchy, not in the cores: a
// dependent multiply chain ran in the same 1870 ns whatever the box was
// doing, while a chain of dependent cache-missing loads moved 66 → 112 ns
// per load and the three core-bound cells moved with it. So every generator
// connection and library thread times such a chain in line with its work —
// the same core, the same second — and the core-bound cells report
// throughput and set-up time at the nominal memory latency instead of
// whatever the neighbours left. bench/README.md ("The box's speed drifts",
// "Calibration") has the measurements, what the adjustment is worth between
// launches and what it costs.

const (
	refSteps = 60      // dependent loads per sample: 4–7 µs
	refWords = 1 << 17 // 512 KiB of uint32: touched too rarely to stay in L2
	// A source samples once per refEvery of wall time, not per so many
	// operations: how warm the chain stays must not depend on how fast the
	// program under test runs.
	refEvery = 100 * time.Microsecond
	// refNominalNs is the sample's median on this box when it is quiet.
	refNominalNs = 4000.0
	// refExponent is −∂log(throughput)/∂log(reference) over one-second
	// windows: 0.49 on kv-scan-writers, 0.44 on lib-hotcold, 0.52 on
	// kv-point — the share of a cell's time that waits for memory.
	refExponent = 0.5
)

// refChain is one random cycle through refWords slots (Sattolo's shuffle of
// a fixed stream: the same chain on every run).
var refChain = func() []uint32 {
	c := make([]uint32, refWords)
	for i := range c {
		c[i] = uint32(i)
	}
	x := uint64(12345)
	for i := refWords - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return c
}()

// memRef is one source's reference sampler.
type memRef struct {
	pos  uint32
	last int64 // UnixNano of the last sample
	h    hist
}

// sample times one chain walk if the last one is refEvery old; now is the
// caller's current time.Now().UnixNano().
func (r *memRef) sample(now int64) {
	if now-r.last < int64(refEvery) {
		return
	}
	r.last = now
	t := time.Now()
	p := r.pos
	for i := 0; i < refSteps; i++ {
		p = refChain[p]
	}
	r.pos = p
	r.h.add(int64(time.Since(t)))
}

// refMedianNs merges the sources' samples since their last reset.
func refMedianNs(refs []*memRef) float64 {
	var h hist
	for _, r := range refs {
		h.merge(&r.h)
	}
	return h.quantile(0.5)
}

// slowdown is the factor by which a core-bound cell ran slower than it would
// have at the nominal memory latency, given the reference's median during
// it: rates are multiplied by it, times divided. A cell bound by the
// modelled flush does not move with the box and reports as measured.
func slowdown(refNs float64, coreBound bool) float64 {
	if !coreBound || refNs <= 0 {
		return 1
	}
	return math.Pow(refNs/refNominalNs, refExponent)
}
