package harness

import (
	"votm/internal/intruder"
	"votm/internal/progress"
)

// This file maps golden_test.go's synthetic runs onto the runners' result
// types and calls the table builders; golden_test.go and its testdata stay
// fixed while the types change.

func results(runs []layoutRun) []progress.Result {
	out := make([]progress.Result, len(runs))
	for i, r := range runs {
		out[i] = progress.Result{Elapsed: r.elapsed, Livelock: r.livelock}
		for _, v := range r.views {
			out[i].Views = append(out[i].Views, progress.ViewStats{
				Commits: v.commits, Aborts: v.aborts, SuccessNs: v.successNs,
				AbortNs: v.abortNs, Delta: v.delta, Quota: v.quota})
		}
	}
	return out
}

func layoutSingleSweep(id, title string, qs []int, runs []layoutRun) *Table {
	return sweepLayout(id, title, Sweep{Qs: qs, Results: results(runs)}, false)
}

// layoutIntruderSweep is the same builder as layoutSingleSweep: both
// applications share one sweep table.
func layoutIntruderSweep(id, title string, qs []int, runs []layoutRun) *Table {
	return layoutSingleSweep(id, title, qs, runs)
}

func layoutMultiSweep(id, title string, qs []int, runs []layoutRun) *Table {
	return sweepLayout(id, title, Sweep{Qs: qs, Results: results(runs)}, true)
}

func layoutAdaptive(id, title string, eigen, intr []layoutRun) *Table {
	set := AdaptiveSet{Eigen: results(eigen)}
	for _, r := range results(intr) {
		set.Intr = append(set.Intr, intruder.Result{Result: r})
	}
	return adaptiveTable(id, title, set)
}
