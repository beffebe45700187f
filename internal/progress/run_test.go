package progress

import (
	"context"
	"testing"

	"votm/internal/core"
	"votm/internal/rac"
	"votm/internal/trace"
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

// TestOnViewsHook: the views setup is handed are the run's views — two in
// view-ID order in the multi-view modes, one of the summed size otherwise —
// and the result reports the same views, in the same order.
func TestOnViewsHook(t *testing.T) {
	const threads, txs = 2, 10
	sizes := [2]int{64, 128}
	for _, mode := range []Mode{MultiView, SingleView} {
		var setupViews []*core.View
		res, err := Run(RunConfig{Engine: core.NOrec, Mode: mode, Quotas: [2]int{2, 2}}, threads, sizes,
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
			t.Fatalf("%v: %v", mode, err)
		}
		want := 1
		if mode.MultipleViews() {
			want = 2
		}
		if len(setupViews) != want || len(res.Views) != want {
			t.Fatalf("%v: setup saw %d views, result has %d, want %d", mode, len(setupViews), len(res.Views), want)
		}
		for i, v := range setupViews {
			if v.ID() != i+1 {
				t.Errorf("%v: view %d has ID %d", mode, i, v.ID())
			}
			if c := v.Totals().Commits; c != res.Views[i].Commits {
				t.Errorf("%v: view %d committed %d, result reports %d", mode, i, c, res.Views[i].Commits)
			}
		}
		if res.TotalCommits() != threads*txs {
			t.Errorf("%v: result committed %d, want %d", mode, res.TotalCommits(), threads*txs)
		}
	}
}

// TestRunReportsViewsAndDecisions: the result lists the run's views in ID
// order — two in the multi-view modes, one of the summed size otherwise —
// with their commits, and hands back the runtime's decision log, which holds
// a quota set made during setup.
func TestRunReportsViewsAndDecisions(t *testing.T) {
	const threads, txs = 2, 10
	sizes := [2]int{64, 128}
	for _, mode := range []Mode{MultiView, SingleView} {
		var last *core.View
		res, err := Run(RunConfig{Engine: core.NOrec, Mode: mode, Quotas: [2]int{2, 2}}, threads, sizes,
			func(rt *core.Runtime, views []*core.View) (Worker, error) {
				if !mode.MultipleViews() && views[0].Size() < sizes[0]+sizes[1] {
					t.Errorf("single view holds %d words, want ≥ %d", views[0].Size(), sizes[0]+sizes[1])
				}
				for i, v := range views {
					if v.ID() != i+1 {
						t.Errorf("%v: view %d has ID %d", mode, i, v.ID())
					}
				}
				last = views[len(views)-1]
				last.SetQuota(1)
				// View i commits (i+1)·txs per thread, so the result's order
				// shows in its counts.
				return func(ctx context.Context, th *core.Thread, idx int) {
					for i, v := range views {
						for n := 0; n < (i+1)*txs; n++ {
							if err := v.Atomic(ctx, th, func(tx core.Tx) error {
								tx.Store(0, tx.Load(0)+1)
								return nil
							}); err != nil {
								t.Error(err)
								return
							}
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
		if len(res.Views) != want {
			t.Fatalf("%v: result has %d views, want %d", mode, len(res.Views), want)
		}
		var sum int64
		for i, v := range res.Views {
			if v.Commits != int64(threads*(i+1)*txs) {
				t.Errorf("%v: result view %d committed %d, want %d", mode, i, v.Commits, threads*(i+1)*txs)
			}
			sum += v.Commits
		}
		if res.TotalCommits() != sum || sum != int64(threads*txs*want*(want+1)/2) {
			t.Errorf("%v: total commits %d, views sum to %d", mode, res.TotalCommits(), sum)
		}
		var set []trace.Decision
		for _, d := range res.Decisions.Entries() {
			if d.Loop == trace.Quota && d.Reason == string(rac.RuleSet) {
				set = append(set, d)
			}
		}
		if len(set) != 1 || set[0].Subject != last.ID() || set[0].From != 2 || set[0].To != 1 {
			t.Errorf("%v: set decisions %v; want view %d's 2 -> 1", mode, set, last.ID())
		}
	}
}
