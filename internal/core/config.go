// Package core implements the VOTM runtime: views (each an independent TM
// instance plus its own RAC controller), per-thread transaction descriptors,
// and the acquire/commit/abort/reacquire loop from the paper's Section II.
//
// The public facade is the repository root package votm; core holds the
// machinery.
package core

import (
	"fmt"

	"votm/internal/faultinject"
	"votm/internal/stm"
	"votm/internal/stm/norec"
	"votm/internal/stm/oreceager"
	"votm/internal/stm/tl2"
)

// EngineKind selects the TM algorithm that backs every view of a runtime.
type EngineKind string

const (
	// NOrec is the commit-time locking algorithm (VOTM-NOrec in the paper).
	NOrec EngineKind = "norec"
	// OrecEagerRedo is the encounter-time locking algorithm
	// (VOTM-OrecEagerRedo in the paper).
	OrecEagerRedo EngineKind = "oreceager"
	// TL2 is commit-time locking over ownership records (Dice, Shalev,
	// Shavit, DISC 2006) — a third RSTM-style plug-in filling the design
	// space between NOrec and OrecEagerRedo.
	TL2 EngineKind = "tl2"
)

// Config configures a Runtime.
type Config struct {
	// Threads is N: the number of worker threads the runtime is sized for.
	// It caps every view's admission quota. Required.
	Threads int
	// Engine selects the TM algorithm. Default NOrec.
	Engine EngineKind
	// NoAdmission disables RAC on every view (the paper's "multi-TM" and
	// "TM" baselines): admission is free, statistics are still collected.
	NoAdmission bool

	// SuicideCM selects the non-stealing contention manager for
	// OrecEagerRedo (ablation; default is the paper-faithful aggressive
	// kill/steal policy).
	SuicideCM bool

	// AdjustEvery is adaptive RAC's adjustment window in completed attempts;
	// zero takes package rac's default.
	AdjustEvery int64

	// MaxConflictRetries is the per-transaction conflict-retry budget K:
	// after K consecutive conflict aborts, the transaction escalates to an
	// irrevocable exclusive execution (admissions drained, Q = 1 semantics,
	// then resumed), bounding starvation under livelock-prone engines such
	// as OrecEagerRedo. 0 (the default) disables escalation — transactions
	// retry forever, the pre-budget behaviour. Escalation requires
	// admission control and is ignored on NoAdmission runtimes.
	MaxConflictRetries int

	// FaultHook, when non-nil, is invoked at instrumented fault-injection
	// sites: every engine Load/Store/Commit and after every admission.
	// It exists for chaos testing (see internal/faultinject); leave nil in
	// production, where engines hand out uninstrumented descriptors and the
	// hot paths carry no hook code at all.
	FaultHook faultinject.Hook
}

func (c *Config) validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("core: Config.Threads must be positive, got %d", c.Threads)
	}
	switch c.Engine {
	case "":
		c.Engine = NOrec
	case NOrec, OrecEagerRedo, TL2:
	default:
		return fmt.Errorf("core: unknown engine %q", c.Engine)
	}
	return nil
}

// newEngine builds one TM instance of the given kind over heap, applying
// the runtime's engine tuning and fault hook. With no FaultHook the engine
// hands out plain, uninstrumented descriptors.
func (c *Config) newEngine(kind EngineKind, heap *stm.Heap) stm.Engine {
	var eng stm.Engine
	switch kind {
	case OrecEagerRedo:
		pol := oreceager.Aggressive
		if c.SuicideCM {
			pol = oreceager.Suicide
		}
		eng = oreceager.New(heap, oreceager.Config{Policy: pol})
	case TL2:
		eng = tl2.New(heap, tl2.Config{})
	default:
		eng = norec.New(heap)
	}
	if c.FaultHook != nil {
		eng.(interface{ SetFaultHook(faultinject.Hook) }).SetFaultHook(c.FaultHook)
	}
	return eng
}
