package progress

import (
	"context"
	"testing"

	"votm/internal/core"
)

func TestModePredicates(t *testing.T) {
	cases := []struct {
		m     Mode
		s     string
		rac   bool
		multi bool
	}{
		{SingleView, "single-view", true, false},
		{MultiView, "multi-view", true, true},
		{MultiTM, "multi-TM", false, true},
		{PlainTM, "TM", false, false},
	}
	for _, c := range cases {
		if c.m.String() != c.s || c.m.RAC() != c.rac || c.m.MultipleViews() != c.multi {
			t.Errorf("mode %v predicates wrong", c.m)
		}
	}
}

// TestOnViewsHook: the hook sees the run's views after setup and before the
// workers start — two in view-ID order in the multi-view modes, one of the
// summed size otherwise — and the result reports the same views.
func TestOnViewsHook(t *testing.T) {
	const threads, txs = 2, 10
	sizes := [2]int{64, 128}
	for _, mode := range []Mode{MultiView, SingleView} {
		var setupViews, hookViews []*core.View
		hook := func(views []*core.View) {
			if setupViews == nil {
				t.Errorf("%v: hook ran before setup", mode)
			}
			hookViews = views
		}
		res, err := Run(RunConfig{Engine: core.NOrec, Mode: mode, Quotas: [2]int{2, 2}, OnViews: hook}, threads, sizes,
			func(rt *core.Runtime, views []*core.View) (Worker, error) {
				setupViews = views
				return func(ctx context.Context, th *core.Thread, idx int) {
					for i := 0; i < txs; i++ {
						v := views[i%len(views)]
						if err := v.Atomic(ctx, th, func(tx core.Tx) error {
							tx.Store(0, tx.Load(0)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if mode.MultipleViews() {
			want = 2
		}
		if len(hookViews) != want || len(res.Views) != want {
			t.Fatalf("%v: hook saw %d views, result has %d, want %d", mode, len(hookViews), len(res.Views), want)
		}
		var commits int64
		for i, v := range hookViews {
			if v.ID() != i+1 {
				t.Errorf("%v: view %d has ID %d", mode, i, v.ID())
			}
			if v != setupViews[i] {
				t.Errorf("%v: hook and setup saw different views", mode)
			}
			commits += v.Totals().Commits
		}
		if commits != threads*txs || res.TotalCommits() != commits {
			t.Errorf("%v: hook views committed %d, result %d, want %d", mode, commits, res.TotalCommits(), threads*txs)
		}
		if !mode.MultipleViews() && hookViews[0].Size() < sizes[0]+sizes[1] {
			t.Errorf("single view holds %d words, want ≥ %d", hookViews[0].Size(), sizes[0]+sizes[1])
		}
	}
}
