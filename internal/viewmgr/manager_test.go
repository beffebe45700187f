package viewmgr

import (
	"context"
	"errors"
	"testing"

	"votm/internal/core"
	"votm/internal/stm"
	"votm/internal/trace"
)

// repartitions returns the split and merge decisions in rt's log.
func repartitions(rt *core.Runtime) []trace.Decision {
	var out []trace.Decision
	for _, d := range rt.Decisions().Entries() {
		if d.Loop == trace.Split || d.Loop == trace.Merge {
			out = append(out, d)
		}
	}
	return out
}

// TestManagerSplitsFusedView drives the full loop end to end: a fused
// hot+cold view (the paper's worst case), a workload whose transactions
// never co-access the two halves, one Step — and the manager must split
// them apart, leave both halves readable, and answer stale handles with
// *MovedError.
func TestManagerSplitsFusedView(t *testing.T) {
	rt := core.NewRuntime(core.Config{Threads: 4})
	v, err := rt.CreateView(1, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := New(rt, Config{
		Sampler: SamplerConfig{SegWords: 64, Rate: 1},
		Planner: PlannerConfig{MinSamples: 32},
	})
	ctx := context.Background()
	if err := m.Manage(ctx, v); err != nil {
		t.Fatal(err)
	}

	// Hot object: segments 0–1, hammered. Cold object: segments 4–7,
	// touched rarely. Never together in one transaction.
	th := rt.RegisterThread()
	for i := 0; i < 400; i++ {
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			tx.Store(10, tx.Load(10)+1)
			tx.Store(70, tx.Load(70)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := v.Atomic(ctx, th, func(tx core.Tx) error {
				tx.Store(300, tx.Load(300)+1)
				tx.Store(400, tx.Load(400)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	n, err := m.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	log := rt.Decisions()
	if n != 1 || log.Count(trace.Split)+log.Count(trace.Merge) != 1 {
		t.Fatalf("Step executed %d repartitions (events %d), want 1", n, log.Count(trace.Split)+log.Count(trace.Merge))
	}
	ev := repartitions(rt)[0]
	if ev.Loop != trace.Split || ev.Subject != 1 || ev.From != 1 || ev.Reason == "" {
		t.Fatalf("event = %+v", ev)
	}

	// The hot pair (segments 0–1, the smaller side) moved to the child.
	childID := ev.To
	if vid, err := rt.Locate(1, 10); err != nil || vid != childID {
		t.Errorf("Locate(1, 10) = %d, %v (child %d)", vid, err, childID)
	}
	if vid, err := rt.Locate(1, 300); err != nil || vid != 1 {
		t.Errorf("Locate(1, 300) = %d, %v", vid, err)
	}

	// Values survived the migration; the stale handle gets the typed error.
	child, err := rt.View(childID)
	if err != nil {
		t.Fatal(err)
	}
	var hot uint64
	if err := child.Atomic(ctx, th, func(tx core.Tx) error {
		hot = tx.Load(10)
		return nil
	}); err != nil || hot != 400 {
		t.Errorf("child read = %d, %v", hot, err)
	}
	err = v.Atomic(ctx, th, func(tx core.Tx) error { _ = tx.Load(10); return nil })
	var me *core.MovedError
	if !errors.As(err, &me) || me.NewView != childID {
		t.Errorf("stale read: %v", err)
	}

	// The child is managed too: its sampler is installed and accumulating.
	if m.Sampler(childID) == nil {
		t.Fatal("child not managed")
	}
	if err := child.Atomic(ctx, th, func(tx core.Tx) error { tx.Store(10, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if sk := m.Sampler(childID).Snapshot(); sk.SampledTx == 0 {
		t.Error("child sampler not accumulating")
	}

	// A second Step with no fresh evidence must not repartition again.
	if n, err := m.Step(ctx); err != nil || n != 0 {
		t.Errorf("second Step = %d, %v", n, err)
	}
}

// TestManagerMergesCalmFamily: after a split, when both sides go calm the
// manager folds the child back and the parent serves the whole range again.
func TestManagerMergesCalmFamily(t *testing.T) {
	rt := core.NewRuntime(core.Config{Threads: 4})
	v, err := rt.CreateView(1, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := New(rt, Config{
		Sampler: SamplerConfig{SegWords: 64, Rate: 1},
		Planner: PlannerConfig{MinSamples: 8},
	})
	ctx := context.Background()
	if err := m.Manage(ctx, v); err != nil {
		t.Fatal(err)
	}
	th := rt.RegisterThread()
	run := func(view *core.View, addr stm.Addr, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if err := view.Atomic(ctx, th, func(tx core.Tx) error {
				tx.Store(addr, tx.Load(addr)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(v, 10, 200) // hot half
	run(v, 300, 10) // cold half
	if n, err := m.Step(ctx); err != nil || n != 1 {
		t.Fatalf("split step = %d, %v", n, err)
	}
	childID := repartitions(rt)[0].To
	child, err := rt.View(childID)
	if err != nil {
		t.Fatal(err)
	}

	// Both sides keep committing without contention (single thread — abort
	// rate zero): the planner should now fold the family back together.
	run(child, 10, 50)
	run(v, 300, 50)
	if n, err := m.Step(ctx); err != nil || n != 1 {
		t.Fatalf("merge step = %d, %v", n, err)
	}
	evs := repartitions(rt)
	last := evs[len(evs)-1]
	if last.Loop != trace.Merge || last.Subject != 1 || last.To != 1 || last.From != childID {
		t.Fatalf("merge event = %+v", last)
	}
	// The parent owns everything again; the retired child is unmanaged.
	if vid, err := rt.Locate(1, 10); err != nil || vid != 1 {
		t.Errorf("Locate(1, 10) after merge = %d, %v", vid, err)
	}
	if m.Sampler(childID) != nil {
		t.Error("retired child still managed")
	}
	var got uint64
	if err := v.Atomic(ctx, th, func(tx core.Tx) error { got = tx.Load(10); return nil }); err != nil || got != 250 {
		t.Errorf("parent read after merge = %d, %v", got, err)
	}
}
