package progress

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"time"

	"votm/internal/core"
	"votm/internal/simpar"
	"votm/internal/trace"
)

// Mode selects which of the paper's four program versions to run.
type Mode int

const (
	// SingleView: both objects in one RAC-controlled view.
	SingleView Mode = iota
	// MultiView: one RAC-controlled view per object.
	MultiView
	// MultiTM: one view per object, RAC disabled.
	MultiTM
	// PlainTM: one view, RAC disabled (the plain RSTM baseline).
	PlainTM
)

func (m Mode) String() string {
	switch m {
	case SingleView:
		return "single-view"
	case MultiView:
		return "multi-view"
	case MultiTM:
		return "multi-TM"
	default:
		return "TM"
	}
}

// RAC reports whether the mode uses admission control.
func (m Mode) RAC() bool { return m == SingleView || m == MultiView }

// MultipleViews reports whether the mode puts each object in a view of its
// own.
func (m Mode) MultipleViews() bool { return m == MultiView || m == MultiTM }

// RunConfig selects the engine, version and quota policy of one run.
type RunConfig struct {
	Engine core.EngineKind
	Mode   Mode
	// Quotas are the fixed quotas of views 1 and 2 (single-view modes use
	// Quotas[0] only). 0 selects adaptive RAC. Ignored when RAC is off.
	Quotas [2]int
	// SuicideCM forwards to the OrecEagerRedo engine config.
	SuicideCM bool
	// AdjustEvery tunes adaptive RAC (see rac.Params); zero keeps the
	// default.
	AdjustEvery int64
	// Yield simulates hardware parallelism on under-provisioned hosts.
	Yield simpar.Mode
	// StallWindow declares livelock when no transaction commits for this
	// long (default 1s). Deadline caps the whole run; each application
	// sets its own default.
	StallWindow time.Duration
	Deadline    time.Duration
	// CrossViewEvery (Eigenbench only), when positive, replaces every Nth
	// scheduled transaction with a batch spanning BOTH views: the thread's
	// view-1 and view-2 transaction bodies run as one multi-view
	// transaction through the escalation path (core.AtomicAll,
	// ascending-view-ID canonical order). Each participating view accounts
	// the batch as an escalated commit, so δ(Q) keeps charging the serial
	// time cross-view work imposes. Requires the multi-view mode
	// (AtomicAll needs admission control).
	CrossViewEvery int
}

// ViewStats is one view's table row fragment (paper Tables III, V, VII, IX).
type ViewStats struct {
	Commits    int64   // #tx
	Aborts     int64   // #abort
	SuccessNs  int64   // CPUcycles_successful_tx (ns proxy)
	AbortNs    int64   // CPUcycles_aborted_tx (ns proxy)
	Delta      float64 // δ(Q) per Equation 5; NaN when Q ≤ 1
	Quota      int     // final/settled Q
	QuotaMoves int64   // number of adaptive quota changes
	// Escalations counts transactions this view executed through the
	// exclusive escalation path — retry-budget escalations plus every
	// cross-view batch it participated in (CrossViewEvery).
	Escalations int64
}

// Result of one run.
type Result struct {
	Elapsed  time.Duration
	Livelock bool
	Reason   string // watchdog reason when Livelock
	Views    []ViewStats
	// Decisions is the runtime's decision log: RAC's quota moves.
	Decisions *trace.Log
}

// TotalCommits sums commits across views.
func (r Result) TotalCommits() int64 {
	var n int64
	for _, v := range r.Views {
		n += v.Commits
	}
	return n
}

// TotalAborts sums aborts across views.
func (r Result) TotalAborts() int64 {
	var n int64
	for _, v := range r.Views {
		n += v.Aborts
	}
	return n
}

// Worker is one benchmark thread's body; idx is its index in [0, threads).
// It returns when its work is done or ctx is cancelled.
type Worker func(ctx context.Context, th *core.Thread, idx int)

// Run executes one experiment over two objects of sizes[0] and sizes[1]
// words. It builds the runtime and lays the objects out — views 1 and 2 in
// the multi-view modes, one view of the summed size otherwise — then hands
// the views to setup, which returns the worker body. The livelock watchdog
// and threads workers run until every worker returns, and the result holds
// every live view's statistics in view-ID order and the runtime's decision
// log. A livelocked run returns Livelock=true and the statistics collected
// so far (the paper prints "livelock" for those cells).
func Run(cfg RunConfig, threads int, sizes [2]int,
	setup func(rt *core.Runtime, views []*core.View) (Worker, error)) (Result, error) {

	if threads <= 0 {
		return Result{}, errors.New("progress: threads must be positive")
	}
	rt := core.NewRuntime(core.Config{
		Threads:     threads,
		Engine:      cfg.Engine,
		NoAdmission: !cfg.Mode.RAC(),
		SuicideCM:   cfg.SuicideCM,
		AdjustEvery: cfg.AdjustEvery,
	})
	var views []*core.View
	if cfg.Mode.MultipleViews() {
		for i, size := range sizes {
			v, err := rt.CreateView(i+1, size, cfg.Quotas[i])
			if err != nil {
				return Result{}, err
			}
			views = append(views, v)
		}
	} else {
		v, err := rt.CreateView(1, sizes[0]+sizes[1], cfg.Quotas[0])
		if err != nil {
			return Result{}, err
		}
		views = append(views, v)
	}
	work, err := setup(rt, views)
	if err != nil {
		return Result{}, err
	}

	commits := func() int64 {
		var n int64
		for _, v := range rt.Views() {
			n += v.Totals().Commits
		}
		return n
	}
	ctx, wd := Watch(context.Background(), commits, cmp.Or(cfg.StallWindow, time.Second), cfg.Deadline)
	start := time.Now()
	var wg sync.WaitGroup
	for idx := 0; idx < threads; idx++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.RegisterThread()
			defer th.Release() // recycle descriptors into the engines' pools
			work(ctx, th, idx)
		}()
	}
	wg.Wait()
	res := Result{Elapsed: time.Since(start), Livelock: wd.Stop(), Reason: wd.Reason(), Decisions: rt.Decisions()}
	for _, s := range rt.Snapshot() {
		res.Views = append(res.Views, ViewStats{
			Commits:     s.Totals.Commits,
			Aborts:      s.Totals.Aborts,
			SuccessNs:   s.Totals.SuccessNs,
			AbortNs:     s.Totals.AbortNs,
			Delta:       s.Delta,
			Quota:       s.EffectiveQuota,
			QuotaMoves:  s.QuotaMoves,
			Escalations: s.Totals.Escalations,
		})
	}
	return res, nil
}
