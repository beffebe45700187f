package votm_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"votm"
)

func TestPublicAPITL2Engine(t *testing.T) {
	ctx := context.Background()
	rt := votm.New(votm.Config{Threads: 4, Engine: votm.TL2})
	v, err := rt.CreateView(1, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.EngineName() != "TL2" {
		t.Fatalf("engine = %s", v.EngineName())
	}
	counter, _ := v.Alloc(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < 150; i++ {
				_ = v.Atomic(ctx, th, func(tx votm.Tx) error {
					tx.Store(counter, tx.Load(counter)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := v.Heap().Load(counter); got != 600 {
		t.Errorf("counter = %d, want 600", got)
	}
}

func TestPublicAPIMixedEnginesPerView(t *testing.T) {
	ctx := context.Background()
	rt := votm.New(votm.Config{Threads: 2, Engine: votm.NOrec})
	v1, err := rt.CreateViewWithEngine(1, 16, 2, votm.OrecEagerRedo)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := rt.CreateViewWithEngine(2, 16, 2, votm.TL2)
	if err != nil {
		t.Fatal(err)
	}
	v3, _ := rt.CreateView(3, 16, 2) // runtime default
	names := []string{v1.EngineName(), v2.EngineName(), v3.EngineName()}
	want := []string{"OrecEagerRedo", "TL2", "NOrec"}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("view %d engine = %s, want %s", i+1, names[i], want[i])
		}
	}
	th := rt.RegisterThread()
	for _, v := range []*votm.View{v1, v2, v3} {
		if err := v.Atomic(ctx, th, func(tx votm.Tx) error {
			tx.Store(0, 7)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPISwitchEngine(t *testing.T) {
	ctx := context.Background()
	rt := votm.New(votm.Config{Threads: 2})
	v, _ := rt.CreateView(1, 16, 2)
	th := rt.RegisterThread()
	_ = v.Atomic(ctx, th, func(tx votm.Tx) error { tx.Store(0, 5); return nil })
	if err := v.SwitchEngine(ctx, votm.TL2); err != nil {
		t.Fatal(err)
	}
	var got uint64
	_ = v.AtomicRead(ctx, th, func(tx votm.Tx) error { got = tx.Load(0); return nil })
	if got != 5 {
		t.Errorf("data lost across switch: %d", got)
	}
}

func TestPublicAPIDecisionLog(t *testing.T) {
	rt := votm.New(votm.Config{Threads: 8})
	v, _ := rt.CreateView(1, 8, 8)
	v.SetQuota(2)
	v.SetQuota(8)
	log := rt.Decisions()
	if n := len(log.Entries()); n != 2 || log.Count(votm.DecisionQuota) != 2 {
		t.Fatalf("logged %d decisions (%d quota moves), want 2", n, log.Count(votm.DecisionQuota))
	}
	tl := log.Timeline(1)
	if !strings.Contains(tl, "-> 2") || !strings.Contains(tl, "-> 8") {
		t.Errorf("timeline = %q", tl)
	}
	ev := log.Entries()
	if ev[0].Subject != 1 || ev[0].From != 8 || ev[0].To != 2 {
		t.Errorf("event = %+v", ev[0])
	}
}

func TestPublicAPIRecommendEngine(t *testing.T) {
	// The three regimes of the recommender through the facade.
	hotShort := votm.RecommendEngine(votm.TMProfile{
		Threads: 16, MeanReads: 2, MeanWrites: 2, AbortRate: 0.6})
	if hotShort.QuotaHint != 1 {
		t.Errorf("hot short: %+v", hotShort)
	}
	memHeavy := votm.RecommendEngine(votm.NewTMProfile(16,
		votm.Totals{Commits: 1000, Aborts: 10}, 0.01, 4, 20))
	if memHeavy.Engine != votm.OrecEagerRedo {
		t.Errorf("memory heavy: %+v", memHeavy)
	}
	quiet := votm.RecommendEngine(votm.NewTMProfile(4,
		votm.Totals{Commits: 1000}, math.NaN(), 3, 1))
	if quiet.Engine != votm.NOrec {
		t.Errorf("quiet: %+v", quiet)
	}
}

func TestPublicAPIDeltaHelper(t *testing.T) {
	tot := votm.Totals{SuccessNs: 100, AbortNs: 300}
	if got := tot.Delta(4); got != 1.0 {
		t.Errorf("Delta = %v", got)
	}
}
