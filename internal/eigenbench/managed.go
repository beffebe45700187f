package eigenbench

import (
	"context"

	"votm/internal/core"
	"votm/internal/progress"
	"votm/internal/trace"
	"votm/internal/viewmgr"
)

// ManagedResult extends the run's result with what the view manager did.
type ManagedResult struct {
	progress.Result
	// Splits and Merges count executed repartitions.
	Splits, Merges int
	// Events are the split and merge decisions the runtime's log kept.
	Events []trace.Decision
	// FinalViews maps each object index to the view ID owning its hot base
	// address when the run ended (1 = still fused).
	FinalViews [2]int
	// Moved counts transactions that hit a MovedError and re-resolved their
	// view — the price of live repartitioning as seen by the workload.
	Moved int64
}

// RunManaged executes the paper's Observation 2 worst case — the hot and the
// cold object fused into ONE RAC-controlled view (the single-view layout;
// cfg.Mode is ignored) — with the online view manager enabled. The
// manager's affinity sampler sees that the two objects never co-occur in a
// transaction, the planner flags the Observation 2 violation, and the
// executor splits the cold object's address range into its own view: the
// run should converge to the paper's hand-partitioned multi-view layout at
// runtime. Workers follow a split through MovedError (worker.atomic).
func RunManaged(cfg progress.RunConfig, p Params, mcfg viewmgr.Config) (ManagedResult, error) {
	cfg.Mode = progress.SingleView
	var rt *core.Runtime
	var mgr *viewmgr.Manager
	res, moved, err := run(cfg, p, func(r *core.Runtime, views []*core.View) error {
		rt, mgr = r, viewmgr.New(r, mcfg)
		if err := mgr.Manage(context.Background(), views[0]); err != nil {
			return err
		}
		mgr.Start()
		return nil
	})
	if err != nil {
		return ManagedResult{}, err
	}
	mgr.Stop()

	log := res.Decisions
	out := ManagedResult{Result: res, Splits: int(log.Count(trace.Split)), Merges: int(log.Count(trace.Merge)), Moved: moved}
	for _, d := range log.Entries() {
		if d.Loop == trace.Split || d.Loop == trace.Merge {
			out.Events = append(out.Events, d)
		}
	}
	for obj, r := range layout(p, false) {
		vid, err := rt.Locate(1, r.hotBase)
		if err != nil {
			return out, err
		}
		out.FinalViews[obj] = vid
	}
	return out, nil
}
