package eigenbench

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"votm/internal/core"
	"votm/internal/progress"
	"votm/internal/stm"
)

// tiny returns a fast, low-scale parameter set that keeps the hot/cold
// shape of Table II.
func tiny(threads, loops int) Params {
	return Params{
		Threads: threads,
		Views: [2]ViewParams{
			{Loops: loops, A1: 64, A2: 1024, A3: 256, R1: 20, W1: 5, R2: 4, W2: 4},
			{Loops: loops, A1: 4096, A2: 1024, A3: 256, R1: 4, W1: 4, R2: 4, W2: 4,
				R3i: 2, W3i: 1, NOPi: 8},
		},
		Seed: 42,
	}
}

func TestPaperParamsMatchTableII(t *testing.T) {
	p := PaperParams()
	if p.Threads != 16 {
		t.Errorf("N = %d, want 16", p.Threads)
	}
	v1, v2 := p.Views[0], p.Views[1]
	if v1.Loops != 100_000 || v2.Loops != 100_000 {
		t.Error("loops != 100k")
	}
	if v1.A1 != 256 || v2.A1 != 16*1024 {
		t.Errorf("A1 = %d, %d", v1.A1, v2.A1)
	}
	if v1.A2 != 16*1024 || v1.A3 != 8*1024 {
		t.Error("view 1 A2/A3 wrong")
	}
	if v1.R1 != 80 || v1.W1 != 20 || v1.R2 != 10 || v1.W2 != 10 {
		t.Error("view 1 access counts wrong")
	}
	if v2.R3i != 5 || v2.W3i != 1 || v2.NOPi != 20 {
		t.Error("view 2 local work wrong")
	}
	if v1.R3o != 0 || v1.W3o != 0 || v1.NOPo != 0 {
		t.Error("outside-tx work must be 0 (Table II)")
	}
}

func TestScaledPreservesShape(t *testing.T) {
	p := Scaled(8, 500)
	if p.Threads != 8 || p.Views[0].Loops != 500 || p.Views[1].Loops != 500 {
		t.Error("Scaled did not rescale")
	}
	if p.Views[0].A1 != PaperParams().Views[0].A1 {
		t.Error("Scaled changed the contention shape")
	}
}

func TestScheduleComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := schedule(rng, 10, 20)
	if len(s) != 30 {
		t.Fatalf("len = %d", len(s))
	}
	var zeros, ones int
	for _, v := range s {
		if v == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if zeros != 10 || ones != 20 {
		t.Errorf("composition %d/%d, want 10/20", zeros, ones)
	}
}

func TestGenOpsComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vp := ViewParams{A1: 16, A2: 64, R1: 5, W1: 3, R2: 2, W2: 1}
	region := objRegion{hotBase: 100, mildBase: 200}
	ops := genOps(nil, rng, vp, region, 2, 4)
	if len(ops) != 11 {
		t.Fatalf("ops len = %d, want 11", len(ops))
	}
	var hotR, hotW, mildR, mildW int
	slot := vp.A2 / 4
	lo, hi := region.mildBase+stm2(2*slot), region.mildBase+stm2(3*slot)
	for _, o := range ops {
		hot := o.addr >= region.hotBase && o.addr < region.hotBase+stm2(vp.A1)
		mild := o.addr >= lo && o.addr < hi
		switch {
		case hot && o.write:
			hotW++
		case hot:
			hotR++
		case mild && o.write:
			mildW++
		case mild:
			mildR++
		default:
			t.Fatalf("op outside its region: %+v", o)
		}
	}
	if hotR != 5 || hotW != 3 || mildR != 2 || mildW != 1 {
		t.Errorf("composition R1=%d W1=%d R2=%d W2=%d", hotR, hotW, mildR, mildW)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	if _, err := Run(progress.RunConfig{Engine: core.NOrec}, Params{Threads: 0}); err == nil {
		t.Error("Threads=0 accepted")
	}
	bad := tiny(2, 10)
	bad.Views[0].A1 = 0
	if _, err := Run(progress.RunConfig{Engine: core.NOrec}, bad); err == nil {
		t.Error("empty hot array accepted")
	}
}

// TestModePredicates: Eigenbench follows the run's mode — two views exactly
// when MultipleViews, lock mode at Q=1 (no aborts) exactly when RAC is on,
// and a caption naming the mode that prints quotas only under RAC.
func TestModePredicates(t *testing.T) {
	const threads, loops = 2, 10
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView, progress.MultiTM, progress.PlainTM} {
		cfg := progress.RunConfig{Engine: core.NOrec, Mode: mode, Quotas: [2]int{1, 1}, StallWindow: 5 * time.Second}
		res, err := Run(cfg, tiny(threads, loops))
		if err != nil {
			t.Fatal(err)
		}
		wantViews := 1
		if mode.MultipleViews() {
			wantViews = 2
		}
		if len(res.Views) != wantViews || res.TotalCommits() != threads*loops*2 {
			t.Errorf("%v: %d views, %d commits", mode, len(res.Views), res.TotalCommits())
		}
		if mode.RAC() && res.TotalAborts() != 0 {
			t.Errorf("%v: Q=1 aborts = %d", mode, res.TotalAborts())
		}
		d := Describe(cfg)
		if !strings.Contains(d, " "+mode.String()+" ") || strings.Contains(d, "Q1=1 Q2=1") != mode.RAC() {
			t.Errorf("%v: caption %q", mode, d)
		}
	}
}

// TestOnViewsHook: Eigenbench's run reports the two views its transactions
// commit in, one per Table II column, and the runtime's decision log.
func TestOnViewsHook(t *testing.T) {
	res, err := Run(progress.RunConfig{
		Engine: core.NOrec,
		Mode:   progress.MultiView,
		Quotas: [2]int{4, 4},
	}, tiny(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Views) != 2 {
		t.Fatalf("result has %d views, want 2", len(res.Views))
	}
	for i, v := range res.Views {
		if v.Commits != 2*10 {
			t.Errorf("view %d committed %d, want %d", i, v.Commits, 2*10)
		}
	}
	if res.TotalCommits() != 2*10*2 {
		t.Errorf("commits = %d", res.TotalCommits())
	}
	if res.Decisions == nil {
		t.Error("result carries no decision log")
	}
}

func runModes(t *testing.T, engine core.EngineKind, quotas [2]int) {
	t.Helper()
	const threads, loops = 4, 60
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView, progress.MultiTM, progress.PlainTM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res, err := Run(progress.RunConfig{
				Engine:      engine,
				Mode:        mode,
				Quotas:      quotas,
				StallWindow: 5 * time.Second,
				Deadline:    60 * time.Second,
			}, tiny(threads, loops))
			if err != nil {
				t.Fatal(err)
			}
			if res.Livelock {
				t.Fatalf("unexpected livelock: %s", res.Reason)
			}
			wantViews := 1
			if mode.MultipleViews() {
				wantViews = 2
			}
			if len(res.Views) != wantViews {
				t.Fatalf("views = %d, want %d", len(res.Views), wantViews)
			}
			if got := res.TotalCommits(); got != int64(threads*loops*2) {
				t.Errorf("commits = %d, want %d", got, threads*loops*2)
			}
			if mode.MultipleViews() {
				for i, vs := range res.Views {
					if vs.Commits != int64(threads*loops) {
						t.Errorf("view %d commits = %d, want %d", i+1, vs.Commits, threads*loops)
					}
				}
			}
			if res.Elapsed <= 0 {
				t.Error("non-positive elapsed time")
			}
		})
	}
}

func TestRunAllModesNOrec(t *testing.T) { runModes(t, core.NOrec, [2]int{4, 4}) }

func TestRunAllModesOrecEagerSuicide(t *testing.T) {
	// Suicide CM cannot livelock, so all modes complete even at full quota.
	const threads, loops = 4, 40
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView} {
		res, err := Run(progress.RunConfig{
			Engine:      core.OrecEagerRedo,
			Mode:        mode,
			Quotas:      [2]int{4, 4},
			SuicideCM:   true,
			StallWindow: 5 * time.Second,
		}, tiny(threads, loops))
		if err != nil {
			t.Fatal(err)
		}
		if res.Livelock {
			t.Fatalf("%v livelocked under suicide CM: %s", mode, res.Reason)
		}
		if res.TotalCommits() != int64(threads*loops*2) {
			t.Errorf("commits = %d", res.TotalCommits())
		}
	}
}

func TestLockModeQ1NoAborts(t *testing.T) {
	res, err := Run(progress.RunConfig{
		Engine: core.OrecEagerRedo,
		Mode:   progress.SingleView,
		Quotas: [2]int{1, 1},
	}, tiny(4, 40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Views[0].Aborts != 0 {
		t.Errorf("Q=1 aborted %d times", res.Views[0].Aborts)
	}
	if !math.IsNaN(res.Views[0].Delta) {
		t.Errorf("δ at Q=1 = %v, want NaN (paper N/A)", res.Views[0].Delta)
	}
}

func TestHotViewHasMoreContention(t *testing.T) {
	// The structural claim of Table V/IX: view 1 (hot) collects more aborts
	// than view 2 (cold) in the multi-view version.
	res, err := Run(progress.RunConfig{
		Engine: core.NOrec,
		Mode:   progress.MultiView,
		Quotas: [2]int{8, 8},
	}, tiny(8, 150))
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := res.Views[0], res.Views[1]
	if hot.Aborts <= cold.Aborts {
		t.Errorf("hot aborts %d <= cold aborts %d; contention shape lost",
			hot.Aborts, cold.Aborts)
	}
}

func TestAdaptiveRACPreventsLivelock(t *testing.T) {
	// The paper's headline (Table VI): with the aggressive ETL engine the
	// hot workload livelocks at free admission, but adaptive RAC restricts
	// Q and completes. This run must finish.
	if testing.Short() {
		t.Skip("adaptive run skipped in -short mode")
	}
	p := tiny(8, 400)
	res, err := Run(progress.RunConfig{
		Engine:      core.OrecEagerRedo,
		Mode:        progress.MultiView,
		Quotas:      [2]int{0, 0}, // adaptive
		StallWindow: 2 * time.Second,
		Deadline:    90 * time.Second,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelock {
		t.Fatalf("adaptive RAC failed to prevent livelock: %s", res.Reason)
	}
	if res.TotalCommits() != int64(8*400*2) {
		t.Errorf("commits = %d", res.TotalCommits())
	}
	t.Logf("settled quotas: Q1=%d Q2=%d, elapsed %v",
		res.Views[0].Quota, res.Views[1].Quota, res.Elapsed)
}

func TestDescribe(t *testing.T) {
	s := Describe(progress.RunConfig{Engine: core.NOrec, Mode: progress.MultiView, Quotas: [2]int{1, 16}})
	if s == "" {
		t.Error("empty describe")
	}
}

// stm2 converts an int to a heap address in tests.
func stm2(i int) stm.Addr { return stm.Addr(i) }

func TestRunAllModesTL2(t *testing.T) {
	const threads, loops = 4, 50
	for _, mode := range []progress.Mode{progress.SingleView, progress.MultiView, progress.MultiTM, progress.PlainTM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res, err := Run(progress.RunConfig{
				Engine:      core.TL2,
				Mode:        mode,
				Quotas:      [2]int{4, 4},
				StallWindow: 5 * time.Second,
			}, tiny(threads, loops))
			if err != nil {
				t.Fatal(err)
			}
			if res.Livelock {
				t.Fatalf("TL2 livelocked (%s) — impossible by construction", res.Reason)
			}
			if res.TotalCommits() != int64(threads*loops*2) {
				t.Errorf("commits = %d", res.TotalCommits())
			}
		})
	}
}

func TestPaperSizeArraysRunable(t *testing.T) {
	// Full Table II array sizes (256/16k hot, 16k mild, 8k cold) with a
	// tiny loop count: exercises the real memory layout end to end.
	if testing.Short() {
		t.Skip("paper-size arrays skipped in -short mode")
	}
	p := PaperParams()
	p.Threads = 4
	p.Views[0].Loops = 5
	p.Views[1].Loops = 5
	res, err := Run(progress.RunConfig{
		Engine:      core.NOrec,
		Mode:        progress.MultiView,
		Quotas:      [2]int{4, 4},
		StallWindow: 10 * time.Second,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelock {
		t.Fatalf("livelock: %s", res.Reason)
	}
	if res.TotalCommits() != 4*5*2 {
		t.Errorf("commits = %d", res.TotalCommits())
	}
}
