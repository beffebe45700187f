package racsim

import (
	"testing"
	"time"

	"votm/internal/rac"
	"votm/internal/theory"
)

func TestWorkloadDeltas(t *testing.T) {
	if d := Hot(16).Delta(16); d <= 1 {
		t.Errorf("Hot δ = %v, want > 1", d)
	}
	if d := Cold(16).Delta(16); d >= 1 {
		t.Errorf("Cold δ = %v, want < 1", d)
	}
}

func TestHotConvergesToLockMode(t *testing.T) {
	// The controller, fed model-hot outcomes, must throttle to the
	// theory-optimal quota (1 for a hot workload).
	w := Hot(16)
	res := Run(Config{Threads: 16, Rounds: 200, Seed: 1}, w)
	set := theory.Set{{C: w.C, D: w.D.Seconds(), T: w.T.Seconds()}}
	if opt := theory.OptimalQ(set, 16); opt != 1 {
		t.Fatalf("model optimum = %d, expected 1 for the hot workload", opt)
	}
	if res.SettledQuota != 1 {
		t.Errorf("settled quota = %d, want 1 (moves: %d)", res.SettledQuota, res.QuotaMoves)
	}
	if res.Commits != 16*200 {
		t.Errorf("commits = %d, want %d", res.Commits, 16*200)
	}
}

func TestColdStaysAtN(t *testing.T) {
	w := Cold(16)
	res := Run(Config{Threads: 16, Rounds: 200, Seed: 2}, w)
	set := theory.Set{{C: w.C, D: w.D.Seconds(), T: w.T.Seconds()}}
	if opt := theory.OptimalQ(set, 16); opt != 16 {
		t.Fatalf("model optimum = %d, expected 16 for the cold workload", opt)
	}
	if res.SettledQuota != 16 {
		t.Errorf("settled quota = %d, want 16 (moves: %d)", res.SettledQuota, res.QuotaMoves)
	}
	if res.QuotaMoves != 0 {
		t.Errorf("cold workload moved the quota %d times", res.QuotaMoves)
	}
}

// TestDeterministicBySeed: a run is a pure function of its seed — the
// settled quota included, which the controller ranks by the attempts' own
// durations rather than by a clock. The interior workloads with probing move
// the quota often, so a tie or a wall-clock read would show here.
func TestDeterministicBySeed(t *testing.T) {
	cases := map[string]struct {
		cfg Config
		w   Workload
	}{
		"hot":              {Config{Threads: 8, Rounds: 100, Seed: 7}, Hot(8)},
		"interior":         {Config{Threads: 16, Rounds: 400, Seed: 11, Probe: 2}, interiorOptimal()},
		"interior-elision": {Config{Threads: 16, Rounds: 400, Seed: 11, Probe: 2, Policy: rac.LockElision}, interiorOptimal()},
	}
	for name, c := range cases {
		a, b := Run(c.cfg, c.w), Run(c.cfg, c.w)
		if a != b {
			t.Errorf("%s: same seed diverged: %+v vs %+v", name, a, b)
		}
		if name != "hot" && a.QuotaMoves < 2 {
			t.Errorf("%s: quota moved %d times; the case checks nothing", name, a.QuotaMoves)
		}
	}
	a := Run(Config{Threads: 8, Rounds: 100, Seed: 7}, Hot(8))
	c := Run(Config{Threads: 8, Rounds: 100, Seed: 8}, Hot(8))
	if a.Aborts == c.Aborts && a.VirtualTime == c.VirtualTime {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestVirtualTimeHotBeatsUnthrottled(t *testing.T) {
	// The makespan claim behind Observation 1: total attempt time with the
	// adaptive controller must be far below the fixed Q=N run on a hot
	// workload.
	w := Hot(16)
	adaptive := Run(Config{Threads: 16, Rounds: 150, Seed: 3}, w)
	fixed := Run(Config{Threads: 16, Rounds: 150, Seed: 3, Quota: 16, AdjustEvery: 1 << 60}, w)
	if adaptive.VirtualTime*2 >= fixed.VirtualTime {
		t.Errorf("adaptive virtual time %v not ≪ fixed-Q16 %v",
			adaptive.VirtualTime, fixed.VirtualTime)
	}
	if fixed.Aborts <= adaptive.Aborts {
		t.Errorf("fixed Q=N aborts %d <= adaptive aborts %d", fixed.Aborts, adaptive.Aborts)
	}
}

func TestLockModeCommitsEverything(t *testing.T) {
	res := Run(Config{Threads: 4, Rounds: 50, Seed: 4, Quota: 1, AdjustEvery: 1 << 60}, Hot(4))
	if res.Aborts != 0 {
		t.Errorf("lock mode aborted %d times", res.Aborts)
	}
	if res.Commits != 200 {
		t.Errorf("commits = %d", res.Commits)
	}
}

func TestFixedMidQuota(t *testing.T) {
	// A fixed mid quota must produce an abort count close to the model's
	// c(Q)·commits expectation.
	w := Hot(16) // C = 64
	const q = 4
	res := Run(Config{Threads: 16, Rounds: 100, Seed: 5, Quota: q, AdjustEvery: 1 << 60}, w)
	cq := w.C * float64(q-1) / 15.0 // = 12.8 expected aborts per commit
	wantAborts := cq * float64(res.Commits)
	ratio := float64(res.Aborts) / wantAborts
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("aborts = %d, model expects ≈ %.0f (ratio %.2f)", res.Aborts, wantAborts, ratio)
	}
}

// InteriorOptimal returns a super-linear-conflict workload whose
// per-commit makespan cost (c(q)·D+T)/q is minimized strictly between 1
// and N — the §IV-B regime.
func interiorOptimal() Workload {
	return Workload{C: 60, D: time.Millisecond, T: time.Millisecond, Exponent: 3}
}

func TestInteriorOptimumExists(t *testing.T) {
	// Sanity-check the workload shape: the per-commit makespan cost is
	// lower at some interior q than at both extremes.
	w := interiorOptimal()
	cost := func(q int) float64 {
		scale := float64(q-1) / 15.0
		cq := w.C * scale * scale * scale
		return (cq*float64(w.D) + float64(w.T)) / float64(q)
	}
	c1, c4, c16 := cost(1), cost(4), cost(16)
	if !(c4 < c1 && c4 < c16) {
		t.Fatalf("no interior optimum: cost(1)=%v cost(4)=%v cost(16)=%v", c1, c4, c16)
	}
}

func TestRACBeatsLockElisionAtInteriorOptimum(t *testing.T) {
	// The paper's §IV-B claim: adaptive locks / SLE choose only between
	// Q=1 and Q=N, so when the optimal quota is interior, RAC's
	// halve/double search wins on makespan.
	w := interiorOptimal()
	const rounds = 400
	racRes := Run(Config{Threads: 16, Rounds: rounds, Seed: 11}, w)
	sleRes := Run(Config{Threads: 16, Rounds: rounds, Seed: 11, Policy: rac.LockElision}, w)

	if racRes.SettledQuota <= 1 || racRes.SettledQuota >= 16 {
		t.Errorf("RAC settled at an extreme: Q=%d", racRes.SettledQuota)
	}
	if sleRes.SettledQuota != 1 && sleRes.SettledQuota != 16 {
		t.Errorf("lock elision settled at interior Q=%d — not two-extremes behaviour",
			sleRes.SettledQuota)
	}
	if racRes.VirtualMakespan >= sleRes.VirtualMakespan {
		t.Errorf("RAC makespan %v not better than lock-elision %v (RAC Q=%d, SLE Q=%d)",
			racRes.VirtualMakespan, sleRes.VirtualMakespan,
			racRes.SettledQuota, sleRes.SettledQuota)
	}
	t.Logf("RAC: Q=%d makespan=%v; lock-elision: Q=%d makespan=%v (%.0f%% slower)",
		racRes.SettledQuota, racRes.VirtualMakespan,
		sleRes.SettledQuota, sleRes.VirtualMakespan,
		100*(float64(sleRes.VirtualMakespan)/float64(racRes.VirtualMakespan)-1))
}

func TestLockElisionMatchesRACAtExtremes(t *testing.T) {
	// On the paper's *linear* model the optimum is an extreme, so the two
	// policies should land on the same quota for hot and cold workloads.
	for name, w := range map[string]Workload{"hot": Hot(16), "cold": Cold(16)} {
		r := Run(Config{Threads: 16, Rounds: 150, Seed: 21}, w)
		s := Run(Config{Threads: 16, Rounds: 150, Seed: 21, Policy: rac.LockElision}, w)
		if r.SettledQuota != s.SettledQuota {
			t.Errorf("%s: RAC Q=%d vs elision Q=%d", name, r.SettledQuota, s.SettledQuota)
		}
	}
}
