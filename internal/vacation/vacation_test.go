package vacation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm"
	"votm/client"
	"votm/internal/server"
	"votm/wire"
)

// startServer boots a votmd on loopback and returns its dial address.
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t testing.TB, addr string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestVacationBasic seeds the tables, books a deterministic set of
// reservations, and audits: capacities, ledger and records must reconcile,
// and the batches must actually have exercised the cross-shard 2PC path.
func TestVacationBasic(t *testing.T) {
	_, addr := startServer(t, server.Config{Shards: 4, ShardWords: 1 << 15, WorkersPerShard: 2})
	c := dial(t, addr, client.Options{BusyRetries: 10, BusyBackoff: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d := New(c, Config{})
	if err := d.Setup(ctx); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	const reserves = 200
	for i := 0; i < reserves; i++ {
		if err := d.ReserveRandom(ctx, rng); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	var deposited uint64
	for i := 0; i < 20; i++ {
		amt := uint64(rng.Intn(500) + 1)
		if err := d.Deposit(ctx, uint64(rng.Intn(d.Config().Customers)), amt); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
		deposited += amt
	}

	if err := d.Audit(ctx, reserves, deposited); err != nil {
		t.Fatal(err)
	}

	// Reservation records must come back in key order and fully decoded.
	recs, err := d.Reservations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != reserves {
		t.Fatalf("%d records, want %d", len(recs), reserves)
	}

	stats, err := c.Stats(ctx, wire.AllShards)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var xs, scans uint64
	for _, st := range stats {
		xs += st.CrossShardGroups
		scans += st.Scans
	}
	if xs == 0 {
		t.Error("no cross-shard groups: the reservation batches never spanned shards")
	}
	if scans == 0 {
		t.Error("no scans counted: the audit queries did not meter")
	}
}

// TestVacationChaos runs the reservation mix under full fault injection.
// The contract under fire is all-or-nothing per batch: an errored Reserve
// or Deposit moved nothing, an acknowledged one moved exactly its units —
// so the post-storm audit must reconcile to the acknowledged tallies alone.
func TestVacationChaos(t *testing.T) {
	const workers = 6
	rounds := 150
	if testing.Short() {
		rounds = 40
	}

	// A single-key write spans ~50 instrumented ops (the ordered index
	// walks a tower per access), so the panic period must sit well above
	// that: ~700 makes a given attempt fault ~7% of the time — enough
	// storm to prove containment, low enough that bounded retries pass.
	inj := votm.NewFaultInjector(votm.FaultConfig{
		ConflictEvery: 29,
		PanicEvery:    701,
		LatencyEvery:  151,
		Latency:       20 * time.Microsecond,
	})
	_, addr := startServer(t, server.Config{
		Shards: 2, ShardWords: 1 << 15, WorkersPerShard: 4, QueueDepth: 128,
		BatchMax: 16, AdjustEvery: 64, MaxConflictRetries: 8,
		RequestTimeout: 30 * time.Second,
		FaultHook:      inj.Hook(),
	})
	c := dial(t, addr, client.Options{
		PoolSize: 4, BusyRetries: 30, BusyBackoff: time.Millisecond,
		RequestTimeout: 30 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	d := New(c, Config{Capacity: 1 << 30}) // deep capacity: wraparound never muddies the sums
	if err := d.Setup(ctx); err != nil {
		t.Fatal(err)
	}

	var deposited, faults atomic.Uint64
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 3))
			for r := 0; r < rounds; r++ {
				var err error
				var isDeposit bool
				var amt uint64
				switch rng.Intn(10) {
				case 0, 1: // ordered table query under fire
					_, _, err = d.TableSum(ctx, TableFlight)
				case 2, 3: // single-key write: the grouped point-op path
					isDeposit, amt = true, uint64(rng.Intn(300)+1)
					err = d.Deposit(ctx, uint64(rng.Intn(d.Config().Customers)), amt)
				default: // multi-key reservation: the cross-shard path
					err = d.ReserveRandom(ctx, rng)
				}
				switch {
				case err == nil:
					if isDeposit {
						deposited.Add(amt)
					}
				case errors.Is(err, client.ErrTxFault):
					faults.Add(1) // rolled back whole: counts nowhere
				default:
					errCh <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The driver's id sequence is not the acknowledged count (failed
	// batches consume ids), so recover the acked count from one capacity
	// table and let Audit cross-check the rest: flights, rooms, ledger and
	// record count must all agree on that ONE number — the conservation
	// law a half-applied batch would break.
	count, sum, err := d.TableSum(ctx, TableFlight)
	if err != nil {
		t.Fatal(err)
	}
	if count != d.Config().Flights {
		t.Fatalf("flight table has %d entries, want %d", count, d.Config().Flights)
	}
	ackedN := uint64(d.Config().Flights)*d.Config().Capacity - sum
	if err := d.Audit(ctx, ackedN, deposited.Load()); err != nil {
		t.Fatal(err)
	}

	stats := inj.Stats()
	if stats.Conflicts == 0 || stats.Panics == 0 {
		t.Fatalf("injector idle (%+v); the chaos run proved nothing", stats)
	}
	if faults.Load() == 0 {
		t.Logf("note: %d injected panics surfaced to no client (all landed outside request bodies)", stats.Panics)
	}
}

// TestVacationDurableRestart drains a durable server mid-workload and
// boots a replacement on the same data directory: the audit must reconcile
// before and after, and a second driver generation must be able to keep
// booking on the recovered state.
func TestVacationDurableRestart(t *testing.T) {
	cfg := server.Config{
		Shards: 2, ShardWords: 1 << 15, WorkersPerShard: 2,
		Durability:    server.DurabilityGroup,
		DataDir:       t.TempDir(),
		SnapshotEvery: time.Hour,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve(ln1) }()

	c1, err := client.Dial(ln1.Addr().String(), client.Options{BusyRetries: 10, BusyBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	d1 := New(c1, Config{})
	if err := d1.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const gen1 = 120
	for i := 0; i < gen1; i++ {
		if err := d1.ReserveRandom(ctx, rng); err != nil {
			t.Fatalf("gen1 reserve %d: %v", i, err)
		}
	}
	if err := d1.Audit(ctx, gen1, 0); err != nil {
		t.Fatalf("pre-restart audit: %v", err)
	}

	_ = c1.Close()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done1; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Second generation on the recovered directory.
	_, addr := startServer(t, cfg)
	c2 := dial(t, addr, client.Options{BusyRetries: 10, BusyBackoff: time.Millisecond})
	d2 := New(c2, Config{IDBase: 1 << 40}) // distinct reservation-id namespace

	if err := d2.Audit(ctx, gen1, 0); err != nil {
		t.Fatalf("post-restart audit: %v", err)
	}
	const gen2 = 60
	for i := 0; i < gen2; i++ {
		if err := d2.ReserveRandom(ctx, rng); err != nil {
			t.Fatalf("gen2 reserve %d: %v", i, err)
		}
	}
	if err := d2.Audit(ctx, gen1+gen2, 0); err != nil {
		t.Fatalf("final audit: %v", err)
	}
}

// BenchmarkVacationMix measures the reservation mix end to end over
// loopback TCP: 70% multi-key reservations, 20% deposits, 10% table scans.
func BenchmarkVacationMix(b *testing.B) {
	_, addr := startServer(b, server.Config{Shards: 4, ShardWords: 1 << 16, WorkersPerShard: 2})
	c := dial(b, addr, client.Options{PoolSize: 4, BusyRetries: 10, BusyBackoff: time.Millisecond})
	ctx := context.Background()
	d := New(c, Config{Capacity: 1 << 40})
	if err := d.Setup(ctx); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			var err error
			switch rng.Intn(10) {
			case 0: // table scan
				_, _, err = d.TableSum(ctx, TableFlight)
			case 1, 2: // deposit
				err = d.Deposit(ctx, uint64(rng.Intn(d.Config().Customers)), 1)
			default: // reservation
				err = d.ReserveRandom(ctx, rng)
			}
			if err != nil {
				b.Fatalf("mix op: %v", err)
			}
		}
	})
}
