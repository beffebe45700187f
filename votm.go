// Package votm is a Go implementation of View-Oriented Transactional Memory
// (VOTM) with Restricted Admission Control (RAC), reproducing Leung, Chen
// and Huang, "When and How VOTM Can Improve Performance in Contention
// Situations" (ICPP Workshops 2012).
//
// # Model
//
// Shared memory is partitioned by the programmer into non-overlapping
// *views*. Each view is an independent software-TM instance — it owns its
// metadata (NOrec's global sequence lock or OrecEagerRedo's ownership-record
// table) — and is guarded by its own RAC admission controller with a quota
// Q: at most Q threads may be inside the view at once. RAC adapts Q to the
// measured contention δ(Q) = t_aborted / (t_successful · (Q−1)): it halves Q
// when δ > 1 and doubles it when δ is low. At Q = 1 the view degenerates to
// a lock and transactions run uninstrumented.
//
// Partitioning data that is never accessed in the same transaction into
// separate views lets RAC throttle a hot view without restricting cold
// ones (the paper's Observation 2) and, independently of RAC, divides
// TM-metadata contention such as NOrec's global clock.
//
// # Usage
//
//	rt := votm.New(votm.Config{Threads: 8, Engine: votm.NOrec})
//	v, _ := rt.CreateView(1, 1024, votm.AdaptiveQuota)
//	counter, _ := v.Alloc(1)
//
//	th := rt.RegisterThread() // one per worker goroutine
//	_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
//		tx.Store(counter, tx.Load(counter)+1)
//		return nil
//	})
//
// The transaction body may be re-executed after conflicts; it must be free
// of side effects other than Tx.Load/Tx.Store and must not store Tx.
package votm

import (
	"context"

	"votm/internal/autotm"
	"votm/internal/core"
	"votm/internal/faultinject"
	"votm/internal/rac"
	"votm/internal/stm"
	"votm/internal/trace"
	"votm/internal/viewmgr"
)

// Addr is the address of a 64-bit word within a view.
type Addr = stm.Addr

// Tx is the transactional access handle passed to Atomic bodies.
type Tx = core.Tx

// Thread is a per-goroutine handle; create one per worker with
// Runtime.RegisterThread. Not safe for concurrent use.
type Thread = core.Thread

// View is a region of shared memory with its own TM instance and RAC
// controller. See core.View for the full method set.
type View = core.View

// Runtime owns views and thread handles; one Runtime per application.
type Runtime = core.Runtime

// Config configures a Runtime. The zero value of optional fields selects
// documented defaults.
type Config = core.Config

// Totals are cumulative per-view transaction statistics.
type Totals = rac.Totals

// ViewSnapshot is a point-in-time per-view statistics snapshot (Totals,
// current/settled quota, δ estimate) — the shape served by votmd's STATS
// operation and consumed by metrics exporters; obtain one with
// View.Snapshot or Runtime.Snapshot.
type ViewSnapshot = core.ViewSnapshot

// EngineKind selects the TM algorithm backing all views of a Runtime.
type EngineKind = core.EngineKind

// TM algorithm selectors.
const (
	// NOrec is commit-time locking with value-based validation
	// (Dalessandro et al., PPoPP 2010). Livelock-free.
	NOrec = core.NOrec
	// OrecEagerRedo is encounter-time locking over ownership records with
	// redo logging (RSTM-7.0). Livelock-prone under high contention.
	OrecEagerRedo = core.OrecEagerRedo
	// TL2 is commit-time locking over ownership records (Dice et al.,
	// DISC 2006). Livelock-free, per-view orec table and version clock.
	TL2 = core.TL2
)

// AdaptiveQuota, passed as the quota argument of CreateView, selects the
// adaptive RAC policy (the paper's create_view(..., q < 1) contract).
const AdaptiveQuota = 0

// New creates a Runtime. It panics on an invalid Config.
func New(cfg Config) *Runtime { return core.NewRuntime(cfg) }

// TMProfile summarizes a view's observed behaviour for engine selection.
type TMProfile = autotm.Profile

// TMRecommendation is engine + quota advice derived from a TMProfile.
type TMRecommendation = autotm.Recommendation

// RecommendEngine suggests a TM algorithm and quota hint for a view from
// its observed profile (the paper's adaptive-TM direction, §IV-C): feed it
// a profiling run's statistics, then create the view with
// Runtime.CreateViewWithEngine or call View.SwitchEngine.
func RecommendEngine(p TMProfile) TMRecommendation { return autotm.Recommend(p) }

// NewTMProfile builds a TMProfile from view statistics; meanReads and
// meanWrites are per-transaction shared-access counts known to the
// application.
func NewTMProfile(threads int, t Totals, deltaQ, meanReads, meanWrites float64) TMProfile {
	return autotm.ProfileFromStats(threads, t.Commits, t.Aborts, deltaQ, meanReads, meanWrites)
}

// AtomicAll runs fn exactly once with exclusive, irrevocable access to every
// view of views — the multi-view escalation primitive behind cross-shard
// ATOMIC batches. Each view is quiesced (RAC pause-and-drain) in the given
// order, fn receives one lock-mode handle per view (txs[i] accesses
// views[i]), and the pauses release in reverse order even on a panic. All
// concurrent multi-view callers must order their views identically, or two
// of them can deadlock; there is no rollback, so fn must validate before its
// first write. Each view accounts the run as an escalation. txs is reused by
// th's next AtomicAll, so fn must not keep it.
func AtomicAll(ctx context.Context, th *Thread, views []*View, readonly bool, fn func(txs []Tx) error) error {
	return core.AtomicAll(ctx, th, views, readonly, fn)
}

// Decision is one entry of a Runtime's decision log, Runtime.Decisions: a
// quota move, a view split or merge, or a votmd shard split, with when it
// happened, old → new and why. The log keeps the last 1024 decisions:
//
//	rt := votm.New(votm.Config{Threads: 8})
//	...
//	fmt.Println(rt.Decisions().Timeline(viewID)) // "8 -(12ms)-> 4 -(40ms)-> 2"
//	_ = rt.Decisions().WriteCSV(f, viewID)      // at_ms,from,to,delta,rule
type Decision = trace.Decision

// The control loops a Decision comes from.
const (
	DecisionQuota      = trace.Quota
	DecisionSplit      = trace.Split
	DecisionMerge      = trace.Merge
	DecisionShardSplit = trace.ShardSplit
)

// Errors re-exported from the runtime core.
var (
	// ErrViewExists: CreateView with a duplicate view ID.
	ErrViewExists = core.ErrViewExists
	// ErrNoView: unknown view ID.
	ErrNoView = core.ErrNoView
	// ErrViewDestroyed: operation on a destroyed view.
	ErrViewDestroyed = core.ErrViewDestroyed
)

// Fault injection — chaos-testing hooks threaded through every engine's
// Load/Store/Commit and the admission path. Wire an injector's Hook into
// Config.FaultHook; with a nil hook the hot paths are uninstrumented. See
// internal/faultinject for the full fault model.

// FaultOp identifies a fault-injection hook site.
type FaultOp = faultinject.Op

// Fault-injection hook sites.
const (
	FaultLoad   = faultinject.OpLoad
	FaultStore  = faultinject.OpStore
	FaultCommit = faultinject.OpCommit
	FaultAdmit  = faultinject.OpAdmit
)

// FaultHook is the hook signature for Config.FaultHook.
type FaultHook = faultinject.Hook

// FaultConfig sets deterministic injection rates for a FaultInjector.
type FaultConfig = faultinject.Config

// FaultStats counts the faults a FaultInjector injected.
type FaultStats = faultinject.Stats

// FaultInjector builds a FaultHook that forces conflicts, injects user
// panics and latency, and flaps quotas at configured rates.
type FaultInjector = faultinject.Injector

// InjectedPanic is the panic value a FaultInjector's panic faults raise, so
// chaos tests can tell injected crashes from real bugs.
type InjectedPanic = faultinject.InjectedPanic

// NewFaultInjector creates a FaultInjector from deterministic rates.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultinject.New(cfg) }

// ThrowConflict unwinds the current transaction with the engines' conflict
// sentinel — the primitive custom FaultHooks use to force a conflict. Only
// call it from inside a hook or transaction body; the runtime treats the
// unwind exactly like a real conflict (abort, backoff, retry).
func ThrowConflict(msg string) { stm.Throw(msg) }

// UserPanic captures a panic raised by user code inside a transaction body;
// the runtime rolls the transaction back and releases admission before
// re-raising the original value. Exposed for diagnostics and tests.
type UserPanic = stm.UserPanic

// Online view management — the subsystem that discovers Observation 2
// violations (hot and cold objects fused into one view despite never being
// accessed together) at runtime and repairs them by live repartitioning:
// quiesce the view, migrate the words, forward stale accesses. The
// low-level executor is available directly as View.Split, Runtime.MergeViews
// and Runtime.Locate; EnableViewManager turns on the full closed loop.
// See docs/ALGORITHMS.md, "Observation 2 online".

// AddrRange is a half-open range [Lo, Hi) of word addresses, the unit of
// View.Split.
type AddrRange = core.AddrRange

// MovedError is returned by Atomic when the transaction touched an address
// whose ownership moved to another view (after a Split or MergeViews). The
// transaction was rolled back; re-resolve the owning view with
// Runtime.Locate and retry:
//
//	var me *votm.MovedError
//	if errors.As(err, &me) {
//		vid, _ := rt.Locate(me.View, me.Addr)
//		view, _ = rt.View(vid)
//		// retry
//	}
type MovedError = core.MovedError

// ViewManager drives affinity sampling, split/merge planning, and live
// repartitioning over a set of managed views.
type ViewManager = viewmgr.Manager

// ViewManagerConfig tunes a ViewManager (sampling rate and granularity,
// planner thresholds, background planning interval).
type ViewManagerConfig = viewmgr.Config

// SamplerConfig tunes a view's affinity sampler (ViewManagerConfig.Sampler).
type SamplerConfig = viewmgr.SamplerConfig

// PlannerConfig tunes the split/merge decision rule (ViewManagerConfig.Planner).
type PlannerConfig = viewmgr.PlannerConfig

// EnableViewManager starts online view management on rt: every currently
// existing view gets an affinity sampler (engines are rebuilt with the
// sampling hook — a brief quiescence per view), and a background loop
// periodically plans and executes splits and merges. Stop the returned
// manager to halt the loop; every executed split and merge is a Decision in
// rt.Decisions(). Samplers stay installed until removed with
// Manager.Unmanage. Views created later are not managed automatically —
// register them with Manager.Manage (split children are managed
// automatically).
func EnableViewManager(rt *Runtime, cfg ViewManagerConfig) (*ViewManager, error) {
	m := viewmgr.New(rt, cfg)
	for _, v := range rt.Views() {
		if err := m.Manage(context.Background(), v); err != nil {
			return nil, err
		}
	}
	m.Start()
	return m, nil
}
