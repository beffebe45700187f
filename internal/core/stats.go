package core

import (
	"sort"

	"votm/internal/rac"
)

// ViewSnapshot is a point-in-time statistics snapshot of one view: the raw
// material for metrics exporters, the votmd STATS operation and the
// evaluation tables. It bundles everything previously scattered across
// View.Totals/Quota/SettledQuota/QuotaMoves so callers do not reach into
// internal/rac piecemeal (and so the fields are read coherently).
type ViewSnapshot struct {
	ViewID int
	Engine EngineKind

	// Quota is the current admission quota Q; SettledQuota is the quota with
	// the largest makespan residence. EffectiveQuota is the one the paper's
	// tables report: SettledQuota when the view is adaptive, the (static)
	// current quota otherwise.
	Quota          int
	SettledQuota   int
	EffectiveQuota int
	Adaptive       bool
	QuotaMoves     int64
	InFlight       int

	// Totals are the cumulative per-view transaction statistics.
	Totals rac.Totals
	// Delta is Equation 5's δ(Q) evaluated over Totals at EffectiveQuota
	// (NaN when EffectiveQuota <= 1, the paper's "N/A" cells).
	Delta float64
}

// Snapshot returns the view's statistics snapshot. The individual fields are
// read under the controller's lock but the snapshot as a whole is not
// atomic with respect to concurrently completing transactions; for a
// monitoring read that is the right trade.
func (v *View) Snapshot() ViewSnapshot {
	ctl := v.ctl
	s := ViewSnapshot{
		ViewID:       v.id,
		Engine:       v.engine().kind,
		Quota:        ctl.Quota(),
		SettledQuota: ctl.SettledQuota(),
		Adaptive:     ctl.Adaptive(),
		QuotaMoves:   ctl.QuotaMoves(),
		InFlight:     ctl.InFlight(),
		Totals:       ctl.Totals(),
	}
	s.EffectiveQuota = s.Quota
	if s.Adaptive {
		s.EffectiveQuota = s.SettledQuota
	}
	s.Delta = s.Totals.Delta(s.EffectiveQuota)
	return s
}

// Snapshot returns a statistics snapshot of every live view, ordered by
// view ID.
func (r *Runtime) Snapshot() []ViewSnapshot {
	views := r.Views()
	out := make([]ViewSnapshot, 0, len(views))
	for _, v := range views {
		out = append(out, v.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ViewID < out[j].ViewID })
	return out
}
