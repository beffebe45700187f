package intruder

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"votm/internal/core"
	"votm/internal/progress"
)

func TestPaperParamsMatchSTAMPDefaults(t *testing.T) {
	p := PaperParams()
	if p.AttackPct != 10 || p.MaxFrags != 128 || p.NumFlows != 262_144 || p.Seed != 1 {
		t.Errorf("paper params wrong: %+v", p)
	}
}

func TestScaled(t *testing.T) {
	p := Scaled(4, 100)
	if p.Threads != 4 || p.NumFlows != 100 {
		t.Errorf("Scaled wrong: %+v", p)
	}
	if p.MaxFrags != PaperParams().MaxFrags {
		t.Error("Scaled changed the fragment shape")
	}
}

func TestGenerateReassemblesByConstruction(t *testing.T) {
	p := Scaled(2, 200)
	p.Seed = 7
	w := Generate(p)
	if w.NumFlows != 200 {
		t.Fatalf("NumFlows = %d", w.NumFlows)
	}
	// Rebuild each flow from its fragments and verify the checksum.
	flows := map[uint64][]byte{}
	lens := map[uint64]int{}
	for _, f := range w.Fragments {
		if _, ok := flows[f.FlowID]; !ok {
			flows[f.FlowID] = make([]byte, f.FlowLen)
			lens[f.FlowID] = 0
		}
		copy(flows[f.FlowID][f.Offset:], f.Data)
		lens[f.FlowID] += len(f.Data)
	}
	if len(flows) != 200 {
		t.Fatalf("fragments cover %d flows", len(flows))
	}
	attacks := 0
	for id, payload := range flows {
		if lens[id] != len(payload) {
			t.Errorf("flow %d: fragment bytes %d != flow length %d", id, lens[id], len(payload))
		}
		if checksum(payload) != w.FlowSums[id] {
			t.Errorf("flow %d: checksum mismatch", id)
		}
		if Detect(payload) {
			attacks++
		}
	}
	if attacks != w.Attacks {
		t.Errorf("detected %d attacks in ground truth, generator says %d", attacks, w.Attacks)
	}
	if w.Attacks == 0 {
		t.Error("no attack flows generated at 10%")
	}
}

func TestGenerateFragmentBounds(t *testing.T) {
	p := Scaled(2, 100)
	p.MaxFrags = 5
	w := Generate(p)
	counts := map[uint64]int{}
	for _, f := range w.Fragments {
		counts[f.FlowID]++
		if len(f.Data) == 0 {
			t.Fatalf("empty fragment in flow %d", f.FlowID)
		}
	}
	for id, n := range counts {
		if n > 5 {
			t.Errorf("flow %d has %d fragments, max 5", id, n)
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	a := Generate(Scaled(2, 50))
	b := Generate(Scaled(2, 50))
	if len(a.Fragments) != len(b.Fragments) || a.Attacks != b.Attacks {
		t.Fatal("same seed produced different workloads")
	}
	for i := range a.Fragments {
		if a.Fragments[i].FlowID != b.Fragments[i].FlowID ||
			!bytes.Equal(a.Fragments[i].Data, b.Fragments[i].Data) {
			t.Fatal("same seed produced different fragments")
		}
	}
}

func TestCutPointsProperty(t *testing.T) {
	prop := func(seed int64, ln, n uint8) bool {
		length := int(ln)%100 + 2
		pieces := int(n)%length + 1
		rng := rand.New(rand.NewSource(seed))
		cuts := cutPoints(rng, length, pieces)
		if len(cuts) != pieces+1 || cuts[0] != 0 || cuts[pieces] != length {
			return false
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDetect(t *testing.T) {
	if Detect([]byte("nothing here")) {
		t.Error("false positive")
	}
	if !Detect(append([]byte("prefix"), append(Signature, 'x')...)) {
		t.Error("false negative")
	}
}

func runIntruder(t *testing.T, cfg progress.RunConfig, p Params) Result {
	t.Helper()
	w := Generate(p)
	cfg.StallWindow = 5 * time.Second
	cfg.Deadline = 120 * time.Second
	res, err := Run(cfg, p, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelock {
		t.Fatalf("livelock: %s", res.Reason)
	}
	if res.FlowsCompleted != int64(p.NumFlows) {
		t.Errorf("flows completed = %d, want %d", res.FlowsCompleted, p.NumFlows)
	}
	if res.AttacksFound != int64(w.Attacks) {
		t.Errorf("attacks found = %d, want %d (detector missed or double-counted)",
			res.AttacksFound, w.Attacks)
	}
	if res.ChecksumErrors != 0 {
		t.Errorf("%d checksum errors — TM isolation bug", res.ChecksumErrors)
	}
	return res
}

// TestModePredicates: Intruder follows the run's mode — queue and
// dictionary in views of their own exactly when MultipleViews, and lock
// mode at Q=1 (no aborts) exactly when RAC is on.
func TestModePredicates(t *testing.T) {
	p := Scaled(2, 40)
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView, progress.MultiTM, progress.PlainTM} {
		res := runIntruder(t, progress.RunConfig{Engine: core.NOrec, Mode: mode, Quotas: [2]int{1, 1}}, p)
		want := 1
		if mode.MultipleViews() {
			want = 2
		}
		if len(res.Views) != want {
			t.Errorf("%v: views = %d, want %d", mode, len(res.Views), want)
		}
		if mode.RAC() && res.TotalAborts() != 0 {
			t.Errorf("%v: Q=1 aborts = %d", mode, res.TotalAborts())
		}
	}
}

// TestOnViewsHook: Intruder's run reports two views in the multi-view mode
// and one in the single-view mode, and the runtime's decision log.
func TestOnViewsHook(t *testing.T) {
	p := Scaled(2, 40)
	for mode, want := range map[progress.Mode]int{progress.MultiView: 2, progress.SingleView: 1} {
		res, err := Run(progress.RunConfig{Engine: core.NOrec, Mode: mode,
			Quotas: [2]int{2, 2}}, p, Generate(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Views) != want {
			t.Fatalf("%v: result has %d views, want %d", mode, len(res.Views), want)
		}
		if res.Decisions == nil {
			t.Errorf("%v: result carries no decision log", mode)
		}
	}
}

func TestRunAllModesNOrec(t *testing.T) {
	p := Scaled(4, 120)
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView, progress.MultiTM, progress.PlainTM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res := runIntruder(t, progress.RunConfig{Engine: core.NOrec, Mode: mode, Quotas: [2]int{4, 4}}, p)
			want := 1
			if mode.MultipleViews() {
				want = 2
			}
			if len(res.Views) != want {
				t.Errorf("views = %d, want %d", len(res.Views), want)
			}
		})
	}
}

func TestRunAllModesOrecEager(t *testing.T) {
	p := Scaled(4, 120)
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runIntruder(t, progress.RunConfig{Engine: core.OrecEagerRedo, Mode: mode, Quotas: [2]int{4, 4}}, p)
		})
	}
}

func TestRunLockModeQ1(t *testing.T) {
	p := Scaled(4, 80)
	res := runIntruder(t, progress.RunConfig{Engine: core.NOrec, Mode: progress.SingleView, Quotas: [2]int{1, 1}}, p)
	if res.Views[0].Aborts != 0 {
		t.Errorf("Q=1 aborts = %d", res.Views[0].Aborts)
	}
}

func TestRunAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive run skipped in -short mode")
	}
	p := Scaled(4, 200)
	res := runIntruder(t, progress.RunConfig{Engine: core.NOrec, Mode: progress.MultiView, Quotas: [2]int{0, 0}}, p)
	t.Logf("adaptive settled: queue Q=%d dict Q=%d elapsed=%v",
		res.Views[0].Quota, res.Views[1].Quota, res.Elapsed)
	// Intruder contention is low (paper: δ ≪ 1), so adaptive RAC must not
	// have throttled all the way to lock mode on the dictionary.
	if res.Views[1].Quota < 1 || res.Views[1].Quota > 4 {
		t.Errorf("dictionary quota = %d out of range", res.Views[1].Quota)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(progress.RunConfig{}, Params{Threads: 0}, &Workload{Fragments: []Fragment{{}}}); err == nil {
		t.Error("Threads=0 accepted")
	}
	if _, err := Run(progress.RunConfig{}, Scaled(2, 10), nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(progress.RunConfig{}, Scaled(2, 10), &Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestChecksumOrderSensitive(t *testing.T) {
	if checksum([]byte{1, 2}) == checksum([]byte{2, 1}) {
		t.Error("checksum ignores order")
	}
}

func TestRunTL2(t *testing.T) {
	p := Scaled(4, 100)
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runIntruder(t, progress.RunConfig{Engine: core.TL2, Mode: mode, Quotas: [2]int{4, 4}}, p)
		})
	}
}

func TestPaperFragmentShapeRunable(t *testing.T) {
	// Full -l128 fragment bound and the paper's payload range, with a
	// small flow count.
	if testing.Short() {
		t.Skip("paper-shape run skipped in -short mode")
	}
	p := PaperParams()
	p.Threads = 4
	p.NumFlows = 64
	w := Generate(p)
	res, err := Run(progress.RunConfig{Engine: core.NOrec, Mode: progress.MultiView,
		Quotas: [2]int{4, 4}, StallWindow: 10 * time.Second}, p, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsCompleted != 64 || res.ChecksumErrors != 0 {
		t.Errorf("completed=%d sumErrs=%d", res.FlowsCompleted, res.ChecksumErrors)
	}
}

func TestResultTotals(t *testing.T) {
	r := Result{Result: progress.Result{Views: []progress.ViewStats{
		{Commits: 10, Aborts: 2},
		{Commits: 5, Aborts: 1},
	}}}
	if r.TotalCommits() != 15 || r.TotalAborts() != 3 {
		t.Errorf("totals = %d, %d", r.TotalCommits(), r.TotalAborts())
	}
}
