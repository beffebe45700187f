package viewmgr

import (
	"math"
	"reflect"
	"testing"

	"votm/internal/autotm"
	"votm/internal/core"
)

// synthSketch builds a sketch from explicit heat and pair tables.
func synthSketch(segWords int, samples uint64, heat map[uint32]uint64, pairs map[[2]uint32]uint64) Sketch {
	sk := Sketch{
		ViewID:    1,
		SegWords:  segWords,
		Heat:      heat,
		Pairs:     make(map[PairKey]uint64, len(pairs)),
		SampledTx: samples,
	}
	for p, c := range pairs {
		sk.Pairs[MakePair(p[0], p[1])] = c
	}
	return sk
}

func contendedProfile() autotm.Profile {
	return autotm.Profile{Threads: 8, MeanReads: 10, MeanWrites: 5, AbortRate: 0.5, DeltaQ: 2}
}

// TestPlanSplitFusedHotCold is the paper's worst case: a hot cluster and a
// cold cluster fused into one view with zero co-access between them — the
// planner must emit exactly the Observation 2 split separating them.
func TestPlanSplitFusedHotCold(t *testing.T) {
	sk := synthSketch(64, 1000,
		map[uint32]uint64{
			0: 5000, 1: 5000, // hot object: two segments, co-accessed
			4: 10, 5: 10, 6: 10, 7: 10, // cold object
		},
		map[[2]uint32]uint64{
			{0, 1}: 2500,                    // within hot
			{4, 5}: 5, {5, 6}: 5, {6, 7}: 5, // within cold
			// no hot↔cold pairs at all
		})
	plan := PlanSplit(sk, contendedProfile(), PlannerConfig{})
	if plan == nil {
		t.Fatal("no plan for a fused hot+cold view")
	}
	// The hot side has the smaller footprint (2 segs vs 4): it moves.
	if !reflect.DeepEqual(plan.MoveSegs, []uint32{0, 1}) {
		t.Errorf("MoveSegs = %v, want [0 1]", plan.MoveSegs)
	}
	want := []core.AddrRange{{Lo: 0, Hi: 128}}
	if !reflect.DeepEqual(plan.Ranges, want) {
		t.Errorf("Ranges = %v, want %v", plan.Ranges, want)
	}
	if plan.Engine == "" {
		t.Error("plan carries no engine hint")
	}
	// Determinism: the identical sketch yields the identical plan.
	again := PlanSplit(sk, contendedProfile(), PlannerConfig{})
	if !reflect.DeepEqual(plan, again) {
		t.Errorf("plan not deterministic:\n%+v\n%+v", plan, again)
	}
}

// TestPlanSplitCoAccessed: disjoint hot and cold objects that ARE accessed
// together violate Observation 2's premise — no plan.
func TestPlanSplitCoAccessed(t *testing.T) {
	sk := synthSketch(64, 1000,
		map[uint32]uint64{0: 5000, 1: 5000, 4: 100, 5: 100},
		map[[2]uint32]uint64{
			{0, 1}: 2500,
			{0, 4}: 80, {1, 5}: 80, // hot and cold co-accessed
		})
	if plan := PlanSplit(sk, contendedProfile(), PlannerConfig{}); plan != nil {
		t.Fatalf("planned %+v for co-accessed objects", plan)
	}
}

func TestPlanSplitUniformViews(t *testing.T) {
	// All segments equally hot: nothing to separate.
	flat := synthSketch(64, 1000,
		map[uint32]uint64{0: 100, 1: 100, 2: 100, 3: 100}, nil)
	if plan := PlanSplit(flat, contendedProfile(), PlannerConfig{}); plan != nil {
		t.Errorf("planned %+v for a uniform view", plan)
	}
	// Single segment: nothing to split.
	one := synthSketch(64, 1000, map[uint32]uint64{0: 100}, nil)
	if plan := PlanSplit(one, contendedProfile(), PlannerConfig{}); plan != nil {
		t.Errorf("planned %+v for a single-segment view", plan)
	}
}

func TestPlanSplitMinSamplesGate(t *testing.T) {
	sk := synthSketch(64, 10, // below the default MinSamples of 32
		map[uint32]uint64{0: 5000, 4: 10}, nil)
	if plan := PlanSplit(sk, contendedProfile(), PlannerConfig{}); plan != nil {
		t.Errorf("planned %+v from a thin sketch", plan)
	}
}

func TestPlanSplitBelowEpsilonCrossTalk(t *testing.T) {
	// A trickle of hot↔cold co-access below epsilon still counts as
	// "never accessed together" (the paper's premise is asymptotic).
	sk := synthSketch(64, 1000,
		map[uint32]uint64{0: 5000, 1: 5000, 4: 1000, 5: 1000},
		map[[2]uint32]uint64{
			{0, 1}: 2500,
			{4, 5}: 500,
			{0, 4}: 3, // 3 < 0.05 * min(5000, 1000) = 50
		})
	plan := PlanSplit(sk, contendedProfile(), PlannerConfig{})
	if plan == nil {
		t.Fatal("no plan despite sub-epsilon cross-talk")
	}
	if !reflect.DeepEqual(plan.MoveSegs, []uint32{0, 1}) {
		t.Errorf("MoveSegs = %v", plan.MoveSegs)
	}
}

func TestPlanMerge(t *testing.T) {
	warm := synthSketch(64, 100, map[uint32]uint64{0: 10}, nil)
	calm := autotm.Profile{Threads: 8, AbortRate: 0.01, DeltaQ: math.NaN()}
	hotp := autotm.Profile{Threads: 8, AbortRate: 0.5, DeltaQ: 2}

	if p := PlanMerge(warm, warm, calm, calm, PlannerConfig{}); p == nil {
		t.Error("no merge for two calm views")
	} else if p.Parent != 1 || p.Child != 1 {
		t.Errorf("merge plan = %+v", p)
	}
	if p := PlanMerge(warm, warm, calm, hotp, PlannerConfig{}); p != nil {
		t.Errorf("merged a contended child: %+v", p)
	}
	thin := synthSketch(64, 1, map[uint32]uint64{0: 1}, nil)
	if p := PlanMerge(thin, warm, calm, calm, PlannerConfig{}); p != nil {
		t.Errorf("merged on a thin sketch: %+v", p)
	}
}

func TestSegRangesCoalesce(t *testing.T) {
	got := segRanges([]uint32{0, 1, 3}, 64)
	want := []core.AddrRange{{Lo: 0, Hi: 128}, {Lo: 192, Hi: 256}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("segRanges = %v, want %v", got, want)
	}
}

func TestShouldSplitAdvisor(t *testing.T) {
	if ok, why := ShouldSplit(ShardLoad{Keys: 10, AbortRate: 0.9}); ok {
		t.Errorf("split a near-empty shard: %s", why)
	}
	if ok, _ := ShouldSplit(ShardLoad{Keys: 2048, AbortRate: 0.5}); !ok {
		t.Error("no split for a contended shard")
	}
	if ok, _ := ShouldSplit(ShardLoad{Keys: 2048, QueueLen: 100, QueueCap: 128}); !ok {
		t.Error("no split for an overloaded queue")
	}
	if ok, _ := ShouldSplit(ShardLoad{Keys: 2048, Quota: 1, QueueLen: 5, QueueCap: 128}); !ok {
		t.Error("no split for a lock-mode shard with queued work")
	}
	if ok, why := ShouldSplit(ShardLoad{Keys: 2048, AbortRate: 0.01, Quota: 4}); ok {
		t.Errorf("split a calm shard: %s", why)
	}

	// The fixed thresholds, at their boundaries: 1024 keys, abort rate 0.25,
	// a half-full queue.
	bounds := []struct {
		load ShardLoad
		want bool
	}{
		{ShardLoad{Keys: 1023, AbortRate: 0.9}, false},
		{ShardLoad{Keys: 1024, AbortRate: 0.9}, true},
		{ShardLoad{Keys: 1024, AbortRate: 0.25}, true},
		{ShardLoad{Keys: 1024, AbortRate: 0.249}, false},
		{ShardLoad{Keys: 1024, QueueLen: 64, QueueCap: 128}, true},
		{ShardLoad{Keys: 1024, QueueLen: 63, QueueCap: 128, Quota: 4}, false},
	}
	for _, b := range bounds {
		if ok, why := ShouldSplit(b.load); ok != b.want {
			t.Errorf("ShouldSplit(%+v) = %v (%s), want %v", b.load, ok, why, b.want)
		}
	}
}
