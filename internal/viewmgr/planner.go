package viewmgr

import (
	"fmt"
	"math"
	"sort"

	"votm/internal/autotm"
	"votm/internal/core"
	"votm/internal/stm"
)

// The planner is pure: sketches in, plans out, no clocks, no goroutines —
// deterministically testable. Its decision rule is Observation 2 inverted:
// the paper proves separating a hot cluster from a cold cluster it never
// co-accesses can only help (Eq. 6–13), so a view whose affinity graph
// contains at least one hot cluster and at least one all-cold cluster with
// near-zero co-access between them is a violation, and the planner emits the
// split that separates them.

// PairKey identifies an unordered segment pair (lo segment in the high bits).
type PairKey uint64

// MakePair builds the canonical key for segments a and b.
func MakePair(a, b uint32) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey(uint64(a)<<32 | uint64(b))
}

// Segs returns the pair's segments, smaller first.
func (k PairKey) Segs() (uint32, uint32) {
	return uint32(k >> 32), uint32(k)
}

// Sketch is one view's affinity sketch: per-segment heat (sampled access
// counts, commit-weighted) and the co-occurrence counts of segment pairs
// touched by the same transaction.
type Sketch struct {
	ViewID    int
	SegWords  int
	Heat      map[uint32]uint64
	Pairs     map[PairKey]uint64
	SampledTx uint64
	Drops     uint64 // per-tx segment-cap overflow
	PairDrops uint64 // sketch pair-cap overflow
}

// PlannerConfig tunes the split/merge decision rule.
type PlannerConfig struct {
	// MinSamples gates planning until the sketch holds at least this many
	// sampled transactions. Default 32.
	MinSamples uint64
	// MergeAbortRate: a split family is merged back when both sides are
	// uncontended — abort rate below MergeAbortRate and δ(Q) below
	// mergeDelta (or NaN). Default 0.05.
	MergeAbortRate float64
}

func (c *PlannerConfig) withDefaults() {
	if c.MinSamples == 0 {
		c.MinSamples = 32
	}
	if c.MergeAbortRate == 0 {
		c.MergeAbortRate = 0.05
	}
}

const (
	// hotFactor sets the hot/cold boundary: segment heats are sorted and
	// the largest ratio between consecutive heats marks the gap; when that
	// ratio is at least hotFactor the segments above the gap are hot.
	// A view without such a gap (no bimodality) is never split.
	hotFactor = 2
	// coAccessEps is the clustering threshold: segments a and b are linked
	// when pairs(a,b) ≥ coAccessEps · min(heat(a), heat(b)). Below it the
	// co-access is considered "near zero" (Observation 2's premise).
	coAccessEps = 0.05
	// mergeDelta is the δ(Q) a split family's sides must stay below to be
	// merged back.
	mergeDelta = 0.25
)

// SplitPlan says: move MoveSegs (equivalently Ranges) out of view View into
// a new child view with the recommended engine and quota.
type SplitPlan struct {
	View      int
	MoveSegs  []uint32 // sorted
	Ranges    []core.AddrRange
	Engine    core.EngineKind
	QuotaHint int // < 1 = adaptive
	Reason    string
}

// MergePlan says: merge split child Child back into Parent.
type MergePlan struct {
	Parent, Child int
	Reason        string
}

// PlanSplit inspects one view's sketch for an Observation 2 violation and
// returns the split separating the offending clusters, or nil when the
// partition is fine (or the sketch too thin to judge). prof describes the
// view's observed workload; it seeds the engine/quota recommendation for
// the split-off side.
func PlanSplit(sk Sketch, prof autotm.Profile, cfg PlannerConfig) *SplitPlan {
	cfg.withDefaults()
	if sk.SampledTx < cfg.MinSamples || len(sk.Heat) < 2 {
		return nil
	}

	// Classify hot/cold at the largest multiplicative gap in the sorted
	// heat distribution. A clear gap means the view is bimodal — the
	// paper's hot-object/cold-object shape; without one there is nothing
	// to separate.
	heats := make([]uint64, 0, len(sk.Heat))
	for _, h := range sk.Heat {
		heats = append(heats, h)
	}
	sort.Slice(heats, func(i, j int) bool { return heats[i] > heats[j] })
	gapAt, gapRatio := -1, 0.0
	for i := 0; i+1 < len(heats); i++ {
		r := float64(heats[i]) / math.Max(float64(heats[i+1]), 1)
		if r > gapRatio {
			gapAt, gapRatio = i, r
		}
	}
	if gapAt < 0 || gapRatio < hotFactor {
		return nil // no bimodality: Observation 2 does not apply
	}
	hotMin := heats[gapAt] // everything at or above the gap is hot
	hot := make(map[uint32]bool, len(sk.Heat))
	for seg, h := range sk.Heat {
		if h >= hotMin {
			hot[seg] = true
		}
	}

	// Cluster by co-access: union segments whose pair count clears the
	// epsilon threshold relative to the cooler endpoint.
	uf := newUnionFind(sk.Heat)
	for k, c := range sk.Pairs {
		a, b := k.Segs()
		ha, hb := sk.Heat[a], sk.Heat[b]
		lim := math.Min(float64(ha), float64(hb)) * coAccessEps
		if float64(c) >= lim && c > 0 {
			uf.union(a, b)
		}
	}
	comps := uf.components()
	if len(comps) < 2 {
		return nil // everything co-accessed: no violation
	}

	// Observation 2 violation = at least one cluster containing a hot
	// segment and at least one all-cold cluster.
	var hotSegs, coldSegs []uint32
	for _, comp := range comps {
		isHot := false
		for _, seg := range comp {
			if hot[seg] {
				isHot = true
				break
			}
		}
		if isHot {
			hotSegs = append(hotSegs, comp...)
		} else {
			coldSegs = append(coldSegs, comp...)
		}
	}
	if len(hotSegs) == 0 || len(coldSegs) == 0 {
		return nil
	}

	// Move the side with the smaller word footprint (fewer segments); on a
	// tie, the hot side — isolating heat is the paper's framing.
	move, side := hotSegs, "hot"
	if len(coldSegs) < len(hotSegs) {
		move, side = coldSegs, "cold"
	}
	sort.Slice(move, func(i, j int) bool { return move[i] < move[j] })

	// Engine/quota hint for the child. A moved hot side inherits the
	// parent's observed contention; a moved cold side is by construction
	// uncontended, so its profile is the parent's shape without the aborts.
	childProf := prof
	if side == "cold" {
		childProf.AbortRate = 0
		childProf.DeltaQ = math.NaN()
	}
	rec := autotm.Recommend(childProf)

	return &SplitPlan{
		View:      sk.ViewID,
		MoveSegs:  move,
		Ranges:    segRanges(move, sk.SegWords),
		Engine:    rec.Engine,
		QuotaHint: rec.QuotaHint,
		Reason: fmt.Sprintf("observation-2 violation: %d hot / %d cold segs in disjoint clusters; moving %s side (%s)",
			len(hotSegs), len(coldSegs), side, rec.Reason),
	}
}

// PlanMerge decides whether split child (sketch child, profile childProf)
// should fold back into parent. Both sides must be warm enough to judge and
// uncontended — the partition then buys nothing and costs a view.
func PlanMerge(parent, child Sketch, parentProf, childProf autotm.Profile, cfg PlannerConfig) *MergePlan {
	cfg.withDefaults()
	if parent.SampledTx < cfg.MinSamples || child.SampledTx < cfg.MinSamples {
		return nil
	}
	calm := func(p autotm.Profile) bool {
		if p.AbortRate >= cfg.MergeAbortRate {
			return false
		}
		return math.IsNaN(p.DeltaQ) || p.DeltaQ < mergeDelta
	}
	if !calm(parentProf) || !calm(childProf) {
		return nil
	}
	return &MergePlan{
		Parent: parent.ViewID,
		Child:  child.ViewID,
		Reason: fmt.Sprintf("both sides uncontended (parent abort=%.3f child abort=%.3f): partition no longer needed",
			parentProf.AbortRate, childProf.AbortRate),
	}
}

// segRanges coalesces sorted segments into address ranges.
func segRanges(segs []uint32, segWords int) []core.AddrRange {
	var out []core.AddrRange
	w := stm.Addr(segWords)
	for _, seg := range segs {
		lo, hi := stm.Addr(seg)*w, stm.Addr(seg+1)*w
		if n := len(out); n > 0 && out[n-1].Hi == lo {
			out[n-1].Hi = hi
			continue
		}
		out = append(out, core.AddrRange{Lo: lo, Hi: hi})
	}
	return out
}

// unionFind over segment IDs.
type unionFind struct {
	parent map[uint32]uint32
}

func newUnionFind(heat map[uint32]uint64) *unionFind {
	uf := &unionFind{parent: make(map[uint32]uint32, len(heat))}
	for seg := range heat {
		uf.parent[seg] = seg
	}
	return uf
}

func (u *unionFind) find(x uint32) uint32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b uint32) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// components returns the clusters, each sorted, ordered by smallest member —
// a deterministic presentation for tests.
func (u *unionFind) components() [][]uint32 {
	groups := make(map[uint32][]uint32)
	for seg := range u.parent {
		r := u.find(seg)
		groups[r] = append(groups[r], seg)
	}
	out := make([][]uint32, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
