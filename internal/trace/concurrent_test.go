package trace

import (
	"sync"
	"testing"
)

// emit walks a quota for one subject of loop: up steps, then down steps,
// so From/To form a chain unique to the (loop, subject) pair.
func emit(l *Log, loop Loop, subject, up, down int) {
	q := 1
	for i := 0; i < up; i++ {
		l.Add(Decision{Loop: loop, Subject: subject, From: q, To: q + 1})
		q++
	}
	for i := 0; i < down; i++ {
		l.Add(Decision{Loop: loop, Subject: subject, From: q, To: q - 1})
		q--
	}
}

// chains groups entries by (loop, subject) and checks the ordering invariant
// the runtime depends on: within a subject, entry k's From equals entry
// k−1's To (chained transitions, no reorders, no drops inside what is kept).
func chains(t *testing.T, ev []Decision) map[[2]int][]Decision {
	t.Helper()
	by := make(map[[2]int][]Decision)
	for _, d := range ev {
		k := [2]int{int(d.Loop), d.Subject}
		if prev := by[k]; len(prev) > 0 && d.From != prev[len(prev)-1].To {
			t.Fatalf("%v subject %d: From=%d does not chain from prior To=%d (reordered or dropped)",
				d.Loop, d.Subject, d.From, prev[len(prev)-1].To)
		}
		by[k] = append(by[k], d)
	}
	// Global order must also be time-consistent: the lock serializes Add and
	// stamps inside it, so append order is the emitters' happens-before order.
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("entry %d stamped before its predecessor", i)
		}
	}
	return by
}

// TestRecorderConcurrentEmitters hammers one Log from eight goroutines,
// each walking a quota for its own view, with exactly Capacity decisions in
// all: below the capacity nothing is dropped and every chain is intact.
func TestRecorderConcurrentEmitters(t *testing.T) {
	const (
		emitters = 8
		perView  = Capacity / emitters / 2
	)
	l := NewLog()
	var wg sync.WaitGroup
	for v := 0; v < emitters; v++ {
		wg.Add(1)
		go func(viewID int) {
			defer wg.Done()
			emit(l, Quota, viewID, perView, perView)
		}(v)
	}
	wg.Wait()

	ev := l.Entries()
	if len(ev) != Capacity || l.Count(Quota) != Capacity {
		t.Fatalf("log kept %d decisions, counted %d, want %d (dropped under concurrency)",
			len(ev), l.Count(Quota), Capacity)
	}
	by := chains(t, ev)
	if len(by) != emitters {
		t.Fatalf("decisions span %d views, want %d", len(by), emitters)
	}
	for k, evs := range by {
		if len(evs) != perView*2 {
			t.Errorf("view %d has %d decisions, want %d", k[1], len(evs), perView*2)
			continue
		}
		if evs[0].From != 1 {
			t.Errorf("view %d first From = %d, want 1", k[1], evs[0].From)
		}
		if last := evs[len(evs)-1]; last.To != 1 {
			t.Errorf("view %d final To = %d, want 1", k[1], last.To)
		}
	}
}

// TestRecorderLimitKeepsNewest: eight emitters on all four loops add far
// more than Capacity decisions. The log keeps exactly the newest Capacity,
// the chains hold on what survives, and each loop's count stays exact.
func TestRecorderLimitKeepsNewest(t *testing.T) {
	const (
		emitters = 8
		steps    = 1000
	)
	l := NewLog()
	var wg sync.WaitGroup
	for v := 0; v < emitters; v++ {
		wg.Add(1)
		go func(subject int) {
			defer wg.Done()
			emit(l, Loop(subject%int(numLoops)), subject, steps, 0)
		}(v)
	}
	wg.Wait()

	ev := l.Entries()
	if len(ev) != Capacity {
		t.Fatalf("log kept %d decisions, want %d", len(ev), Capacity)
	}
	for loop := Loop(0); loop < numLoops; loop++ {
		if got, want := l.Count(loop), int64(emitters/int(numLoops)*steps); got != want {
			t.Errorf("%v count = %d, want %d", loop, got, want)
		}
	}
	for k, evs := range chains(t, ev) {
		// Each emitter's walk is strictly increasing, so the newest kept
		// decision is the top of the walk, not an arbitrary window.
		if last := evs[len(evs)-1]; last.To != steps+1 {
			t.Fatalf("%v subject %d newest kept To = %d, want %d", Loop(k[0]), k[1], last.To, steps+1)
		}
	}
}
