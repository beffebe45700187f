package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"votm"
	"votm/internal/eigenbench"
)

// lib-hotcold: the votm facade alone — no network, nothing of wire, server
// or wal — on the paper's Table II shapes (eigenbench.PaperParams): a hot
// view (256-word hot array, 80 reads + 20 writes of it per transaction) and
// a cold view, each with its own NOrec instance and adaptive RAC, two
// threads, hot and cold transactions interleaved at random. Writes are ±1
// transfer pairs inside one array, so every array sums to zero at any
// commit point; that is the audit. A server-side change must not move this
// workload.

const (
	libThreads    = 2 // N = 4 and 16 under simulated yields take minutes here
	libAuditEvery = 1024
	libWarmOps    = 500_000 // fixed warm-up transactions per thread: set-up takes ≈4 s
)

// Access kinds of one transaction's shared accesses.
const (
	accReadHot = iota
	accXferHot
	accReadMild
	accXferMild
)

// Span names of a traced lib run.
const (
	libSpanHot = iota
	libSpanCold
	libSpanAudit
)

type libView struct {
	v         *votm.View
	p         eigenbench.ViewParams
	hot, mild votm.Addr
	pattern   []uint8 // the transaction's access kinds, shuffled once per seed
}

type libInstance struct {
	rt      *votm.Runtime
	views   [2]*libView
	handles []*votm.View // both views in ascending id order, for AtomicAll
	threads []*libThread
}

// libThread is one worker: its runtime thread, private cold arrays and
// window counters (the library counterpart of gen).
type libThread struct {
	idx  int
	in   *libInstance
	th   *votm.Thread
	rng  *rand.Rand
	samp sampler
	cold [2][]uint64
	sink uint64
	// bodies[o] is the transaction body on view o, built once so the hot
	// loop allocates no closure per transaction.
	bodies [2]func(votm.Tx) error

	attempted uint64
	failed    uint64
	firstFail string
	ref       memRef // sampled between operations, in every phase

	winOps []uint64
	winLat []hist
	spans  []reqSpan
}

func startLib(o opts, maxWin int) (*libInstance, time.Duration, error) {
	t0 := time.Now()
	pp := eigenbench.PaperParams()
	in := &libInstance{rt: votm.New(votm.Config{Threads: libThreads, Engine: votm.NOrec})}
	rng := rand.New(rand.NewSource(o.seed))
	for i := range in.views {
		p := pp.Views[i]
		v, err := in.rt.CreateView(i+1, p.A1+p.A2, votm.AdaptiveQuota)
		if err != nil {
			return nil, 0, err
		}
		lv := &libView{v: v, p: p}
		if lv.hot, err = v.Alloc(p.A1); err != nil {
			return nil, 0, err
		}
		if lv.mild, err = v.Alloc(p.A2); err != nil {
			return nil, 0, err
		}
		add := func(kind uint8, n int) {
			for j := 0; j < n; j++ {
				lv.pattern = append(lv.pattern, kind)
			}
		}
		add(accReadHot, p.R1)
		add(accXferHot, p.W1/2)
		add(accReadMild, p.R2)
		add(accXferMild, p.W2/2)
		rng.Shuffle(len(lv.pattern), func(a, b int) { lv.pattern[a], lv.pattern[b] = lv.pattern[b], lv.pattern[a] })
		in.views[i] = lv
		in.handles = append(in.handles, v)
	}
	for i := 0; i < libThreads; i++ {
		t := &libThread{
			idx:    i,
			in:     in,
			th:     in.rt.RegisterThread(),
			rng:    rand.New(rand.NewSource(o.seed*1_000_003 + int64(i))),
			samp:   newSampler(o.seed*1_000_003 + int64(i)),
			winOps: make([]uint64, maxWin),
			winLat: make([]hist, maxWin),
		}
		for j := range t.cold {
			t.cold[j] = make([]uint64, pp.Views[j].A3)
			t.bodies[j] = func(tx votm.Tx) error {
				t.body(tx, in.views[j], j)
				return nil
			}
		}
		in.threads = append(in.threads, t)
	}
	err := in.runPhase(max(1, uint64(float64(libWarmOps)*o.warmScale)), time.Time{}, 0, nil)
	return in, time.Since(t0), err
}

func (in *libInstance) tally(rep *report) {
	for _, t := range in.threads {
		rep.attempted, rep.failed = rep.attempted+t.attempted, rep.failed+t.failed
		if t.firstFail != "" {
			rep.failf("%s", t.firstFail)
		}
	}
}

func (in *libInstance) refs() []*memRef {
	refs := make([]*memRef, len(in.threads))
	for i, t := range in.threads {
		refs[i] = &t.ref
	}
	return refs
}

// runPhase runs count transactions per thread (count > 0) or nWin
// one-second windows from t0 on every thread at once.
func (in *libInstance) runPhase(count uint64, t0 time.Time, nWin int, tr *tracer) error {
	errs := make([]error, len(in.threads))
	var wg sync.WaitGroup
	for i, t := range in.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = t.run(count, t0, nWin, tr)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (t *libThread) fail(msg string) {
	t.failed++
	if t.firstFail == "" {
		t.firstFail = fmt.Sprintf("thread %d: %s", t.idx, msg)
	}
}

func (t *libThread) run(count uint64, t0 time.Time, nWin int, tr *tracer) error {
	for i := 0; i < nWin; i++ {
		t.winOps[i] = 0
		t.winLat[i].reset()
	}
	if tr != nil {
		t.spans = t.spans[:0]
	}
	ctx := context.Background()
	curWin := 0
	for n := uint64(0); count == 0 || n < count; n++ {
		sampled := t.samp.next()
		timedOp := nWin > 0 && (sampled || tr != nil)
		var start time.Time
		if timedOp {
			start = time.Now()
		}
		if n%16 == 0 {
			t.ref.sample(time.Now().UnixNano())
		}
		kind, ok, err := t.op(ctx, n)
		if err != nil {
			return err
		}
		t.attempted++
		if timedOp {
			end := time.Now()
			w := int(end.Sub(t0) / time.Second)
			if w >= nWin {
				return nil // the op that crossed the end is in no window
			}
			curWin = w
			if sampled {
				t.winLat[w].add(int64(end.Sub(start)))
			}
			if tr != nil && len(t.spans) < cap(t.spans) {
				t.spans = append(t.spans, reqSpan{seq: uint32(n), name: kind, win: int16(w),
					t0: int64(start.Sub(tr.epoch)), t1: int64(end.Sub(tr.epoch))})
			}
		}
		if ok && nWin > 0 {
			t.winOps[curWin]++
		}
	}
	return nil
}

// op runs operation n: every libAuditEvery-th is the read-only audit over
// both views, the rest are hot or cold transactions picked at random.
func (t *libThread) op(ctx context.Context, n uint64) (kind uint8, ok bool, err error) {
	if n%libAuditEvery == libAuditEvery-1 {
		sums, err := t.in.audit(ctx, t.th)
		if err != nil {
			return libSpanAudit, false, err
		}
		if sums != [4]int64{} {
			t.fail(fmt.Sprintf("audit at op %d: array sums %v, want all zero", n, sums))
			return libSpanAudit, false, nil
		}
		return libSpanAudit, true, nil
	}
	o := t.rng.Intn(2)
	err = t.in.views[o].v.Atomic(ctx, t.th, t.bodies[o])
	return uint8(o), err == nil, err
}

// body is one transaction: the view's shared accesses in its shuffled order
// with the cold-array work of Table II between them. Addresses are drawn
// inside the body, so a retried attempt touches fresh ones (as Eigenbench's
// rand_r inside the transaction does).
func (t *libThread) body(tx votm.Tx, lv *libView, o int) {
	p := &lv.p
	slot := p.A2 / libThreads
	mild := lv.mild + votm.Addr(t.idx*slot)
	s := t.sink
	xfer := func(base votm.Addr, n int) {
		a, b := base+votm.Addr(t.rng.Intn(n)), base+votm.Addr(t.rng.Intn(n))
		tx.Store(a, tx.Load(a)+1)
		tx.Store(b, tx.Load(b)-1)
	}
	for _, kind := range lv.pattern {
		switch kind {
		case accReadHot:
			s += tx.Load(lv.hot + votm.Addr(t.rng.Intn(p.A1)))
		case accXferHot:
			xfer(lv.hot, p.A1)
		case accReadMild:
			s += tx.Load(mild + votm.Addr(t.rng.Intn(slot)))
		case accXferMild:
			xfer(mild, slot)
		}
		cold := t.cold[o]
		for i := 0; i < p.R3i; i++ {
			s += cold[t.rng.Intn(len(cold))]
		}
		for i := 0; i < p.W3i; i++ {
			cold[t.rng.Intn(len(cold))] = s
		}
		for i := 0; i < p.NOPi; i++ {
			s = s*1664525 + 1013904223
		}
	}
	t.sink = s
}

// audit sums the four shared arrays inside one read-only transaction over
// both views.
func (in *libInstance) audit(ctx context.Context, th *votm.Thread) (sums [4]int64, err error) {
	err = votm.AtomicAll(ctx, th, in.handles, true, func(txs []votm.Tx) error {
		sums = [4]int64{}
		for i, lv := range in.views {
			for a := 0; a < lv.p.A1; a++ {
				sums[2*i] += int64(txs[i].Load(lv.hot + votm.Addr(a)))
			}
			for a := 0; a < lv.p.A2; a++ {
				sums[2*i+1] += int64(txs[i].Load(lv.mild + votm.Addr(a)))
			}
		}
		return nil
	})
	return sums, err
}

// timed is kvInstance.timed for the library workload; the per-view RAC and
// STM statistics are read from View.Snapshot around it.
func (in *libInstance) timed(nWin int, tr *tracer, parent int) (*phaseResult, [2][2]votm.ViewSnapshot, error) {
	res := &phaseResult{winThr: make([]float64, nWin), winLat: make([]hist, nWin)}
	var snaps [2][2]votm.ViewSnapshot
	attempted := func() (n uint64) {
		for _, t := range in.threads {
			n += t.attempted
		}
		return n
	}
	a0 := attempted()
	for _, r := range in.refs() {
		r.h.reset()
	}
	for i, lv := range in.views {
		snaps[0][i] = lv.v.Snapshot()
	}
	res.proc[0] = takeProcSnap()
	t0 := time.Now()
	err := in.runPhase(0, t0, nWin, tr)
	res.proc[1] = takeProcSnap()
	for i, lv := range in.views {
		snaps[1][i] = lv.v.Snapshot()
	}
	res.attempted = attempted() - a0
	res.refNs = refMedianNs(in.refs())
	for _, t := range in.threads {
		res.add(t.winOps, t.winLat)
	}
	if tr != nil {
		tr.addWindows(parent, t0, nWin)
		for _, t := range in.threads {
			tr.addSource(t.spans, nil) // a transaction has no inner boundaries
		}
	}
	return res, snaps, err
}
