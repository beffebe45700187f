package viewmgr

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"votm/internal/autotm"
	"votm/internal/core"
	"votm/internal/trace"
)

// Manager drives the sampler → planner → executor loop over a set of
// managed views: it installs affinity samplers, periodically snapshots their
// sketches, asks the planner for Split/Merge plans, and executes them with
// core.View.Split / core.Runtime.MergeViews. Split children are managed
// automatically; merged children are retired (left forwarding) and
// unmanaged. Every executed split and merge is a decision in the runtime's
// log (core.Runtime.Decisions), with the planner's reason.
type Manager struct {
	rt  *core.Runtime
	cfg Config

	mu       sync.Mutex
	views    map[int]*managedView
	families map[int]int // child view ID → parent view ID
	nextID   int

	stop chan struct{}
	done chan struct{}
}

type managedView struct {
	view    *core.View
	sampler *Sampler
}

// Config tunes a Manager.
type Config struct {
	// Sampler configures each managed view's affinity sampler.
	Sampler SamplerConfig
	// Planner configures the split/merge decision rule.
	Planner PlannerConfig
	// Interval is the background planning period for Start. Default 100ms.
	Interval time.Duration
}

const (
	// firstChildID is the first view ID handed to split children; each
	// split takes the next free ID at or above it.
	firstChildID = 1 << 20
	// stepTimeout bounds one planning pass (each quiesce inherits it).
	stepTimeout = 5 * time.Second
)

// New creates a manager. Call Manage for each view to watch, then Start (or
// drive Step yourself).
func New(rt *core.Runtime, cfg Config) *Manager {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	return &Manager{
		rt:       rt,
		cfg:      cfg,
		views:    make(map[int]*managedView),
		families: make(map[int]int),
		nextID:   firstChildID,
	}
}

// Manage installs an affinity sampler on v and includes it in planning.
func (m *Manager) Manage(ctx context.Context, v *core.View) error {
	s := NewSampler(v.ID(), m.cfg.Sampler)
	if err := v.SetAccessHook(ctx, s.Hook()); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.views[v.ID()] = &managedView{view: v, sampler: s}
	return nil
}

// Unmanage removes the view from planning and uninstalls its sampler.
func (m *Manager) Unmanage(ctx context.Context, v *core.View) error {
	m.mu.Lock()
	delete(m.views, v.ID())
	m.mu.Unlock()
	return v.SetAccessHook(ctx, nil)
}

// Sampler returns the sampler managing view vid, or nil.
func (m *Manager) Sampler(vid int) *Sampler {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mv, ok := m.views[vid]; ok {
		return mv.sampler
	}
	return nil
}

func (m *Manager) profile(v *core.View, sk Sketch) autotm.Profile {
	snap := v.Snapshot()
	meanAcc := 0.0
	if sk.SampledTx > 0 {
		var mass uint64
		for _, h := range sk.Heat {
			mass += h
		}
		meanAcc = float64(mass) / float64(sk.SampledTx)
	}
	return autotm.ProfileFromStats(m.rt.Config().Threads,
		snap.Totals.Commits, snap.Totals.Aborts, snap.Delta,
		meanAcc/2, meanAcc/2)
}

// Step runs one planning pass: snapshot every managed view, execute at most
// one split per view and then any merges the planner asks for. It returns
// the number of repartitions executed. Step is not reentrant; Start
// serializes calls, or drive it from a single goroutine.
func (m *Manager) Step(ctx context.Context) (int, error) {
	m.mu.Lock()
	ids := make([]int, 0, len(m.views))
	for id := range m.views {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Ints(ids)

	executed := 0
	var firstErr error
	for _, id := range ids {
		m.mu.Lock()
		mv := m.views[id]
		m.mu.Unlock()
		if mv == nil {
			continue
		}
		n, err := m.stepView(ctx, mv)
		executed += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	executed += m.stepMerges(ctx, &firstErr)
	return executed, firstErr
}

func (m *Manager) stepView(ctx context.Context, mv *managedView) (int, error) {
	sk := mv.sampler.Snapshot()
	plan := PlanSplit(sk, m.profile(mv.view, sk), m.cfg.Planner)
	if plan == nil {
		return 0, nil
	}
	m.mu.Lock()
	childID := m.nextID
	m.nextID++
	m.mu.Unlock()

	cctx, cancel := context.WithTimeout(ctx, stepTimeout)
	child, err := mv.view.Split(cctx, childID, plan.Ranges, plan.Engine, plan.QuotaHint)
	cancel()
	if err != nil {
		return 0, fmt.Errorf("viewmgr: split of view %d failed: %w", plan.View, err)
	}
	m.rt.Decisions().Add(trace.Decision{Loop: trace.Split, Subject: plan.View, From: plan.View, To: childID, Reason: plan.Reason})
	mv.sampler.Reset()
	m.mu.Lock()
	m.families[childID] = plan.View
	m.mu.Unlock()
	mctx, mcancel := context.WithTimeout(ctx, stepTimeout)
	err = m.Manage(mctx, child)
	mcancel()
	if err != nil {
		return 1, fmt.Errorf("viewmgr: sampler install on child %d failed: %w", childID, err)
	}
	return 1, nil
}

func (m *Manager) stepMerges(ctx context.Context, firstErr *error) int {
	m.mu.Lock()
	type pair struct{ child, parent int }
	var pairs []pair
	for c, p := range m.families {
		pairs = append(pairs, pair{c, p})
	}
	m.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].child < pairs[j].child })

	executed := 0
	for _, pr := range pairs {
		m.mu.Lock()
		cv, pv := m.views[pr.child], m.views[pr.parent]
		m.mu.Unlock()
		if cv == nil || pv == nil {
			continue
		}
		csk, psk := cv.sampler.Snapshot(), pv.sampler.Snapshot()
		plan := PlanMerge(psk, csk, m.profile(pv.view, psk), m.profile(cv.view, csk), m.cfg.Planner)
		if plan == nil {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, stepTimeout)
		err := m.rt.MergeViews(cctx, pr.parent, pr.child)
		cancel()
		if err != nil {
			if *firstErr == nil {
				*firstErr = fmt.Errorf("viewmgr: merge %d<-%d failed: %w", pr.parent, pr.child, err)
			}
			continue
		}
		m.rt.Decisions().Add(trace.Decision{Loop: trace.Merge, Subject: pr.parent, From: pr.child, To: pr.parent, Reason: plan.Reason})
		pv.sampler.Reset()
		m.mu.Lock()
		delete(m.families, pr.child)
		delete(m.views, pr.child) // retired: forwards everything to parent
		m.mu.Unlock()
		executed++
	}
	return executed
}

// Start launches the background planning loop. Stop it with Stop.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.loop(m.stop, m.done)
}

func (m *Manager) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
			m.Step(ctx) //nolint:errcheck // planning is best-effort; a failed step leaves no decision
			cancel()
		}
	}
}

// Stop halts the background loop and waits for it to exit.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
