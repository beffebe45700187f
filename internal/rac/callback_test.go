package rac

import (
	"math"
	"testing"
	"time"
)

// move is one OnQuotaChange call.
type move struct {
	from, to int
	delta    float64
	rule     Rule
}

func recordMoves(moves *[]move) func(from, to int, delta float64, rule Rule) {
	return func(from, to int, delta float64, rule Rule) {
		*moves = append(*moves, move{from, to, delta, rule})
	}
}

func TestOnQuotaChangeCallback(t *testing.T) {
	var moves []move
	c := New(Params{
		Threads:       8,
		InitialQuota:  8,
		OnQuotaChange: recordMoves(&moves),
	})
	c.SetQuota(4)
	c.SetQuota(4) // no-op: must not fire
	c.SetQuota(1)
	if len(moves) != 2 {
		t.Fatalf("moves = %v", moves)
	}
	if moves[0].from != 8 || moves[0].to != 4 || moves[1].from != 4 || moves[1].to != 1 {
		t.Errorf("moves = %v", moves)
	}
	// A manual set acted on no window: the "set" rule, δ NaN.
	for _, m := range moves {
		if m.rule != RuleSet || !math.IsNaN(m.delta) {
			t.Errorf("SetQuota reported rule %v, δ %v; want set, NaN", m.rule, m.delta)
		}
	}
}

func TestOnQuotaChangeFiresOnAdaptiveMoves(t *testing.T) {
	var moves []move
	c := New(Params{
		Threads: 8, InitialQuota: 8, Adaptive: true, AdjustEvery: 4,
		OnQuotaChange: recordMoves(&moves),
	})
	driveWindow(c, time.Microsecond, 50*time.Millisecond)
	if len(moves) == 0 {
		t.Fatal("adaptive halving did not fire the callback")
	}
	// The hot window halves Q and reports the δ it acted on and its rule.
	if m := moves[0]; m.from != 8 || m.to != 4 || !(m.delta > 1) || m.rule != RuleHigh {
		t.Errorf("hot window reported %+v; want 8 -> 4, δ > 1, rule δ > high", m)
	}
	for _, m := range moves {
		if m.to >= m.from {
			t.Errorf("hot window must halve: %d -> %d", m.from, m.to)
		}
	}

	// Down to Q = 1, then eight windows there probe back out to 2.
	for c.Quota() > 1 {
		driveWindow(c, time.Microsecond, 50*time.Millisecond)
	}
	moves = nil
	for i := 0; i < 8; i++ { // default ProbeAtLockEvery = 8
		driveWindow(c, time.Microsecond, 0)
	}
	if len(moves) != 1 {
		t.Fatalf("eight windows at Q = 1 reported %v, want one probe", moves)
	}
	if m := moves[0]; m.from != 1 || m.to != 2 || m.rule != RuleProbe || !math.IsNaN(m.delta) {
		t.Errorf("probe reported %+v; want 1 -> 2, rule probe, δ NaN", m)
	}
}

func TestLockElisionPolicyJumpsToExtremes(t *testing.T) {
	c := New(Params{Threads: 16, InitialQuota: 16, Adaptive: true,
		AdjustEvery: 16, Policy: LockElision})
	// Hot window: straight to 1, not 8.
	driveWindow(c, time.Microsecond, 100*time.Millisecond)
	if got := c.Quota(); got != 1 {
		t.Fatalf("hot window Q = %d, want 1 (jump, not halve)", got)
	}
	// Probe back out, then a cold window must jump straight to N.
	for i := 0; i < 8; i++ { // default ProbeAtLockEvery = 8
		driveWindow(c, 10*time.Millisecond, 0)
	}
	if got := c.Quota(); got != 2 {
		t.Fatalf("after probe Q = %d, want 2", got)
	}
	driveWindow(c, 10*time.Millisecond, 0)
	if got := c.Quota(); got != 16 {
		t.Errorf("cold window Q = %d, want 16 (jump, not double)", got)
	}
	if HalveDouble.String() != "halve-double" || LockElision.String() != "lock-elision" {
		t.Error("Policy stringer wrong")
	}
}
