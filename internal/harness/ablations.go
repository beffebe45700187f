package harness

import (
	"fmt"
	"time"

	"votm/internal/core"
	"votm/internal/progress"
	"votm/internal/rac"
	"votm/internal/racsim"
)

// AblationCM compares OrecEagerRedo's two contention managers on the
// single-view Eigenbench sweep: the paper-faithful aggressive kill/steal
// policy (livelock-prone, §III-D) against the suicide policy. It isolates
// how much of the high-Q collapse is due to mutual kills.
func AblationCM(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "ablation: OrecEagerRedo contention manager (single-view Eigenbench runtime)",
		Note:  "aggressive = kill owner & steal (paper behaviour); suicide = abort self",
	}
	qs := s.clippedQs()
	t.Header = append([]string{"CM \\ Q"}, intsToStrings(qs)...)
	for _, suicide := range []bool{false, true} {
		name := "aggressive"
		if suicide {
			name = "suicide"
		}
		row := []string{name}
		for _, q := range qs {
			cfg := s.cfg(core.OrecEagerRedo, progress.SingleView, q, q)
			cfg.SuicideCM = suicide
			res, err := eigenRun(s, cfg)
			if err != nil {
				return nil, err
			}
			if res.Livelock {
				row = append(row, "livelock")
			} else {
				row = append(row, FormatSeconds(res.Elapsed))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationClock isolates NOrec's global-clock contention (the paper's
// §III-D explanation for Intruder's multi-view win): the same Intruder work
// is run as one TM instance (TM) versus two (multi-TM), RAC disabled in
// both, across thread counts. The delta is pure metadata-contention relief.
func AblationClock(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A3",
		Title: "ablation: NOrec global-clock contention (Intruder, RAC disabled)",
		Note:  "multi-TM splits queue and dictionary into two TM instances with separate clocks",
	}
	threadCounts := []int{4, 8, 16}
	t.Header = []string{"version \\ threads"}
	for _, n := range threadCounts {
		t.Header = append(t.Header, fmt.Sprintf("%d", n))
	}
	for _, mode := range []progress.Mode{progress.PlainTM, progress.MultiTM} {
		row := []string{mode.String()}
		for _, n := range threadCounts {
			ts := s
			ts.Threads = n
			res, err := intruderRun(ts, ts.cfg(core.NOrec, mode, n, n))
			if err != nil {
				return nil, err
			}
			cell := FormatSeconds(res.Elapsed)
			if res.Livelock {
				cell = "livelock"
			}
			row = append(row, cell+" ("+FormatCount(res.TotalAborts())+" ab)")
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationAdjust sweeps the adaptive controller's window length
// (rac.Params.AdjustEvery) on the multi-view Eigenbench under
// OrecEagerRedo: too-long windows adapt too slowly to prevent the hot
// view's abort storm; too-short windows adapt on noise.
func AblationAdjust(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A2",
		Title: "ablation: RAC adjustment window (adaptive multi-view Eigenbench, OrecEagerRedo)",
		Note:  "AdjustEvery = completed attempts per δ(Q) evaluation",
	}
	windows := []int64{32, 128, 512, 2048}
	t.Header = []string{"AdjustEvery", "runtime(s)", "settled Q1", "settled Q2", "#abort", "Q moves"}
	for _, w := range windows {
		cfg := s.cfg(core.OrecEagerRedo, progress.MultiView, 0, 0)
		cfg.AdjustEvery = w
		res, err := eigenRun(s, cfg)
		if err != nil {
			return nil, err
		}
		rt := FormatSeconds(res.Elapsed)
		if res.Livelock {
			rt = "livelock"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			rt,
			fmt.Sprintf("%d", res.Views[0].Quota),
			fmt.Sprintf("%d", res.Views[1].Quota),
			FormatCount(res.TotalAborts()),
			fmt.Sprintf("%d", res.Views[0].QuotaMoves+res.Views[1].QuotaMoves),
		})
	}
	return t, nil
}

// AblationEngines compares all three TM engines (NOrec, TL2,
// OrecEagerRedo) on both applications in single-view mode at Q = N,
// positioning TL2 — commit-time locking *with* orecs — between the paper's
// two algorithms.
func AblationEngines(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A4",
		Title: "ablation: TM algorithm comparison (single-view, Q = N, RAC fixed)",
		Note:  "TL2 = commit-time locking over orecs (Dice et al. 2006); runtime (total aborts)",
	}
	t.Header = []string{"engine", "Eigenbench", "Intruder"}
	engines := []core.EngineKind{core.NOrec, core.TL2, core.OrecEagerRedo}
	for _, eng := range engines {
		row := []string{string(eng)}

		cfg := s.cfg(eng, progress.SingleView, s.Threads, s.Threads)
		eres, err := eigenRun(s, cfg)
		if err != nil {
			return nil, err
		}
		cell := FormatSeconds(eres.Elapsed)
		if eres.Livelock {
			cell = "livelock"
		}
		row = append(row, cell+" ("+FormatCount(eres.TotalAborts())+" ab)")

		ires, err := intruderRun(s, cfg)
		if err != nil {
			return nil, err
		}
		cell = FormatSeconds(ires.Elapsed)
		if ires.Livelock {
			cell = "livelock"
		}
		row = append(row, cell+" ("+FormatCount(ires.TotalAborts())+" ab)")

		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationPolicy compares the paper's RAC (halve/double, interior quotas)
// against the §IV-B adaptive-lock/SLE baseline (Q ∈ {1, N} only) on the
// discrete-event model simulator: linear-conflict hot and cold workloads
// (where the optimum is an extreme and the policies tie) and a super-linear
// workload whose optimal quota is interior (where RAC wins). Virtual
// makespans make the comparison deterministic and host-independent.
func AblationPolicy(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A5",
		Title: "ablation: RAC vs adaptive-lock policy (model simulator, virtual makespan)",
		Note:  "adaptive locks (§IV-B) pick only Q∈{1,N}; interior-optimum workload: c(q)=C·((q−1)/(N−1))³",
	}
	t.Header = []string{"workload", "RAC makespan", "RAC Q", "lock-elision makespan", "elision Q"}
	n := s.Threads
	workloads := []struct {
		name string
		w    racsim.Workload
	}{
		{"hot (linear)", racsim.Hot(n)},
		{"cold (linear)", racsim.Cold(n)},
		{"interior-optimal (cubic)", racsim.Workload{
			C: 60, D: time.Millisecond, T: time.Millisecond, Exponent: 3}},
	}
	for _, wl := range workloads {
		cfg := racsim.Config{Threads: n, Rounds: 300, Seed: 17}
		r := racsim.Run(cfg, wl.w)
		cfg.Policy = rac.LockElision
		e := racsim.Run(cfg, wl.w)
		t.Rows = append(t.Rows, []string{
			wl.name,
			r.VirtualMakespan.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.SettledQuota),
			e.VirtualMakespan.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", e.SettledQuota),
		})
	}
	return t, nil
}

// AllAblations runs the design-choice ablations from DESIGN.md.
func AllAblations(s Scale) ([]*Table, error) {
	var out []*Table
	for _, b := range []func(Scale) (*Table, error){AblationCM, AblationAdjust, AblationClock, AblationEngines, AblationPolicy} {
		t, err := b(s)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
