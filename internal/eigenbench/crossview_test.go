package eigenbench

import (
	"math"
	"testing"
	"time"

	"votm/internal/core"
	"votm/internal/progress"
)

// TestCrossViewRequiresMultiView: the cross-view option rides the multi-view
// escalation path (core.AtomicAll), which needs admission control and two
// views — every other mode must be rejected up front.
func TestCrossViewRequiresMultiView(t *testing.T) {
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiTM, progress.PlainTM} {
		_, err := Run(progress.RunConfig{
			Engine:         core.NOrec,
			Mode:           mode,
			CrossViewEvery: 4,
		}, tiny(2, 10))
		if err == nil {
			t.Errorf("mode %v: CrossViewEvery accepted, want error", mode)
		}
	}
}

// TestCrossViewCommitsAndEscalations checks the accounting contract: a
// cross-view batch replaces one scheduled transaction but commits once on
// EACH view (AtomicAll records an escalated commit per participant), and the
// per-view escalation counters expose at least one escalation per batch.
func TestCrossViewCommitsAndEscalations(t *testing.T) {
	const threads, loops, every = 4, 28, 8
	res, err := Run(progress.RunConfig{
		Engine:         core.NOrec,
		Mode:           progress.MultiView,
		Quotas:         [2]int{4, 4},
		CrossViewEvery: every,
		StallWindow:    5 * time.Second,
	}, tiny(threads, loops))
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelock {
		t.Fatalf("livelock: %s", res.Reason)
	}
	sched := 2 * loops // per-thread scheduled transactions
	cross := sched / every
	want := int64(threads * (sched - cross + 2*cross))
	if got := res.TotalCommits(); got != want {
		t.Errorf("commits = %d, want %d (%d cross batches/thread double-commit)",
			got, want, cross)
	}
	for i, vs := range res.Views {
		if vs.Escalations < int64(threads*cross) {
			t.Errorf("view %d: escalations = %d, want >= %d (one per cross-view batch)",
				i+1, vs.Escalations, threads*cross)
		}
	}
}

// TestCrossViewDeltaDefined: with a fixed quota above 1 the cross-view run
// must still report a defined δ(Q) on both views — the escalated batches are
// charged into the same Equation 5 inputs as ordinary transactions.
func TestCrossViewDeltaDefined(t *testing.T) {
	res, err := Run(progress.RunConfig{
		Engine:         core.NOrec,
		Mode:           progress.MultiView,
		Quotas:         [2]int{4, 4},
		CrossViewEvery: 6,
		StallWindow:    5 * time.Second,
	}, tiny(4, 60))
	if err != nil {
		t.Fatal(err)
	}
	for i, vs := range res.Views {
		if math.IsNaN(vs.Delta) {
			t.Errorf("view %d: δ(Q) is NaN at Q=4", i+1)
		}
		if vs.Delta < 0 {
			t.Errorf("view %d: δ(Q) = %v < 0", i+1, vs.Delta)
		}
	}
}

// BenchmarkCrossViewDelta is the cross-view δ(Q) cell captured into
// BENCH_server.json by `make bench-server`: the Table II multi-view shape at
// bench scale, once conflict-free across views (off) and once with every 8th
// transaction spanning both views through the AtomicAll escalation path
// (every8). The delta metrics are the paper's Equation 5 read directly off
// each view — the "off" pair is the single-view-free prediction the cross
// cell is compared against.
func BenchmarkCrossViewDelta(b *testing.B) {
	for _, c := range []struct {
		name  string
		every int
	}{
		{"off", 0},
		{"every8", 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			var commits int64
			for i := 0; i < b.N; i++ {
				res, err := Run(progress.RunConfig{
					Engine:         core.NOrec,
					Mode:           progress.MultiView,
					Quotas:         [2]int{4, 4},
					CrossViewEvery: c.every,
					StallWindow:    5 * time.Second,
					Deadline:       60 * time.Second,
				}, tiny(8, 150))
				if err != nil {
					b.Fatal(err)
				}
				if res.Livelock {
					b.Fatalf("livelock: %s", res.Reason)
				}
				commits += res.TotalCommits()
				if i == b.N-1 {
					b.ReportMetric(res.Views[0].Delta, "v1-delta-q")
					b.ReportMetric(res.Views[1].Delta, "v2-delta-q")
					b.ReportMetric(float64(res.Views[0].Escalations+res.Views[1].Escalations),
						"escalations")
				}
			}
			b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/sec")
		})
	}
}
