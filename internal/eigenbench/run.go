package eigenbench

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"votm/internal/core"
	"votm/internal/progress"
	"votm/internal/simpar"
	"votm/internal/stm"
)

// Run executes the benchmark in cfg.Mode and returns its statistics
// (progress.Run); the deadline defaults to 60s.
func Run(cfg progress.RunConfig, p Params) (progress.Result, error) {
	for i, vp := range p.Views {
		if vp.sharedAccesses() > 0 && (vp.A1 <= 0 || vp.A2 <= 0) {
			return progress.Result{}, fmt.Errorf("eigenbench: view %d has shared accesses but empty arrays", i+1)
		}
	}
	if cfg.CrossViewEvery > 0 && cfg.Mode != progress.MultiView {
		return progress.Result{}, errors.New("eigenbench: CrossViewEvery requires the multi-view mode")
	}
	cfg.Deadline = cmp.Or(cfg.Deadline, 60*time.Second)
	regions := layout(p, cfg.Mode.MultipleViews())
	return progress.Run(cfg, p.Threads, [2]int{p.Views[0].words(), p.Views[1].words()},
		func(_ *core.Runtime, views []*core.View) (progress.Worker, error) {
			return func(ctx context.Context, th *core.Thread, idx int) {
				w := &worker{
					p: p, idx: idx, regions: regions,
					views: [2]*core.View{views[0], views[len(views)-1]},
					rng:   rand.New(rand.NewSource(p.Seed + int64(idx)*7919)),
					yield: simpar.Enabled(cfg.Yield, p.Threads),
					cold: [2][]uint64{
						make([]uint64, max(p.Views[0].A3, 1)),
						make([]uint64, max(p.Views[1].A3, 1)),
					},
					ops: make([]op, 0, max(p.Views[0].sharedAccesses(), p.Views[1].sharedAccesses())),
				}
				w.run(ctx, th, cfg.CrossViewEvery, views)
			}, nil
		})
}

// layout places the two objects: each at the base of its own view in the
// multi-view modes, back to back in one view otherwise.
func layout(p Params, multi bool) [2]objRegion {
	var r [2]objRegion
	off := 0
	for i := range r {
		if multi {
			off = 0
		}
		r[i] = objRegion{hotBase: stm.Addr(off), mildBase: stm.Addr(off + p.Views[i].A1)}
		off += p.Views[i].words()
	}
	return r
}

// worker is one of the N benchmark threads (paper Figure 3 main loop).
type worker struct {
	p       Params
	idx     int
	regions [2]objRegion
	views   [2]*core.View // the view owning each object
	rng     *rand.Rand
	yield   bool
	cold    [2][]uint64
	ops     []op
	sink    uint64
}

func (w *worker) run(ctx context.Context, th *core.Thread, crossEvery int, views []*core.View) {
	sched := schedule(w.rng, w.p.Views[0].Loops, w.p.Views[1].Loops)
	for n, obj := range sched {
		if ctx.Err() != nil {
			return
		}
		if crossEvery > 0 && (n+1)%crossEvery == 0 {
			// Cross-view batch: both objects' bodies as one multi-view
			// transaction. views is in ascending view-ID order (IDs 1, 2)
			// — the canonical AtomicAll order every concurrent acquirer
			// must share.
			err := core.AtomicAll(ctx, th, views, false, func(txs []core.Tx) error {
				s := w.body(txs[0], 0, w.sink)
				w.sink = w.body(txs[1], 1, s)
				return nil
			})
			if err != nil {
				return // cancelled (livelock watchdog or deadline)
			}
			continue
		}
		if err := w.atomic(ctx, th, int(obj)); err != nil {
			return // cancelled (livelock watchdog or deadline)
		}
		// Activities outside transactions (Figure 3).
		if vp := w.p.Views[obj]; vp.R3o > 0 || vp.W3o > 0 || vp.NOPo > 0 {
			localWork(w.cold[obj], w.rng, vp.R3o, vp.W3o, vp.NOPo, &w.sink)
		}
	}
}

// atomic runs one transaction on object obj.
func (w *worker) atomic(ctx context.Context, th *core.Thread, obj int) error {
	return w.views[obj].Atomic(ctx, th, func(tx core.Tx) error {
		w.sink = w.body(tx, obj, w.sink)
		return nil
	})
}

// body is the transaction on object obj: its shared accesses with cold work
// and yield points between them, s carrying the read sum. The access
// sequence is drawn inside the body, so a retried (aborted) transaction
// touches fresh random addresses — exactly like Eigenbench's rand_r inside
// the transaction. Without this, two conflicting transactions replay
// identical address sets and can starve each other forever.
func (w *worker) body(tx core.Tx, obj int, s uint64) uint64 {
	vp := w.p.Views[obj]
	w.ops = genOps(w.ops, w.rng, vp, w.regions[obj], w.idx, w.p.Threads)
	for _, o := range w.ops {
		if o.write {
			tx.Store(o.addr, s)
		} else {
			s += tx.Load(o.addr)
		}
		if vp.R3i > 0 || vp.W3i > 0 || vp.NOPi > 0 {
			localWork(w.cold[obj], w.rng, vp.R3i, vp.W3i, vp.NOPi, &s)
		}
		if w.yield {
			runtime.Gosched()
		}
	}
	return s
}

// Describe summarizes a run config for logs and table captions.
func Describe(cfg progress.RunConfig) string {
	q := "adaptive"
	if cfg.Mode.RAC() && (cfg.Quotas[0] > 0 || cfg.Quotas[1] > 0) {
		q = fmt.Sprintf("Q1=%d Q2=%d", cfg.Quotas[0], cfg.Quotas[1])
	}
	return fmt.Sprintf("eigenbench %s engine=%s %s", cfg.Mode, cfg.Engine, q)
}
