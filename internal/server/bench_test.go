package server_test

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"votm"
	"votm/client"
	"votm/internal/server"
	"votm/wire"
)

// BenchmarkServerThroughput is the loopback proof for the group-commit
// datapath: the full server stack — frame decode, shard queue, grouped view
// transaction, response encode, coalesced writes — measured across
// workload × engine × batching. The batch=1/batch=16 pairs under the same
// workload are the numbers that justify grouping: with one RAC admission and
// one begin/commit per group, queue pressure turns into larger groups
// instead of longer waits.
//
// The load generator speaks the raw wire protocol with deep pipelining
// (hundreds of requests in flight, many frames per syscall) rather than the
// synchronous Go client, for two reasons: that is the regime group commit
// exists for (a standing queue at the shard), and it keeps generator-side
// syscalls from drowning the server datapath in the measurement — this
// suite runs generator and server in one process.
//
// Captured into BENCH_server.json by `make bench-server`.
func BenchmarkServerThroughput(b *testing.B) {
	engines := []struct {
		name string
		kind votm.EngineKind
	}{
		{"norec", votm.NOrec},
		{"oreceager", votm.OrecEagerRedo},
	}
	workloads := []struct {
		name  string
		build func(req *wire.Request, rng *rand.Rand, val []byte)
	}{
		{"readheavy", benchReadHeavy},
		{"writeheavy", benchWriteHeavy},
		{"cascontended", benchCASContended},
	}
	for _, wl := range workloads {
		for _, eng := range engines {
			for _, batch := range []int{1, 16} {
				name := fmt.Sprintf("%s/%s/batch%d", wl.name, eng.name, batch)
				b.Run(name, func(b *testing.B) {
					benchServer(b, benchConfig(eng.kind, batch), wl.build)
				})
			}
		}
	}
}

// BenchmarkServerOverload is the backpressure proof: the pipelining window
// (4096 deep) far exceeds what one worker drains in half a millisecond, the
// regime where the queue bound alone sets the queueing delay an accepted
// request can accumulate. static16's ring holds the whole window, so nothing
// is shed and closed-loop latency grows toward window × per-op. queue512's
// ring holds 512 requests (≈ 500 µs of work at ≈ 1 µs/op): the excess is
// answered BUSY on the ring bound, busy-share reports the shed fraction, and
// p50/p99/p999 land under static16's. (This no-backoff closed loop re-offers
// every shed request at once — a worst case for shedding, not the intended
// client behavior.) Captured into BENCH_server.json by `make bench-server`.
func BenchmarkServerOverload(b *testing.B) {
	const overloadWindow = 4096
	for _, cell := range []struct {
		name  string
		queue int
	}{
		{"static16", 8192}, // the generator window fits: BUSY never fires
		{"queue512", 512},
	} {
		b.Run("writeheavy/norec/"+cell.name+"/overload", func(b *testing.B) {
			cfg := benchConfig(votm.NOrec, 16)
			cfg.QueueDepth = cell.queue
			benchServerOpts(b, cfg, overloadWindow, true, benchWriteHeavy)
		})
	}
}

// BenchmarkServerDurable is the durability tax, measured: the same deep-
// pipelined write-heavy load as BenchmarkServerThroughput, but every group
// is appended to the per-shard WAL and answered only after its fsync. The
// batch sweep shows where group commit earns the cost back: at batch=512 one
// fsync covers hundreds of writes, and a second worker overlaps the next
// group's execution with the previous group's flush (wal.Log.Sync releases
// walMu before fsyncing, and its watermark lets one fsync cover both).
//
// The acceptance bar (ISSUE 6) is durable write-heavy norec >= 0.6x the
// in-memory baseline; the batch512/workers1 "mem" cell below is the
// same-shape baseline (same window, same queue depth, durability off), so
// the ratio reads directly out of BENCH_server.json.
func BenchmarkServerDurable(b *testing.B) {
	for _, batch := range []int{16, 512} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("writeheavy/norec/batch%d/workers%d/group", batch, workers)
			b.Run(name, func(b *testing.B) {
				cfg := benchConfig(votm.NOrec, batch)
				cfg.WorkersPerShard = workers
				cfg.QueueDepth = 8192
				cfg.Durability = server.DurabilityGroup
				cfg.DataDir = b.TempDir()
				cfg.SnapshotEvery = time.Hour // measure the WAL, not the snapshotter
				// Window several groups deep so a worker always has a next
				// group queued while another group's flush is in flight.
				benchServerWindow(b, cfg, 6*max(batch, benchChunk), benchWriteHeavy)
			})
		}
	}
	// Same-shape in-memory baseline for the headline durable cell: identical
	// window and queue depth, WAL off. The gap to .../batch512/workers1/group
	// is the whole durability tax.
	b.Run("writeheavy/norec/batch512/workers1/mem", func(b *testing.B) {
		cfg := benchConfig(votm.NOrec, 512)
		cfg.QueueDepth = 8192
		benchServerWindow(b, cfg, 6*512, benchWriteHeavy)
	})
	b.Run("readheavy/norec/batch16/workers1/group", func(b *testing.B) {
		cfg := benchConfig(votm.NOrec, 16)
		cfg.Durability = server.DurabilityGroup
		cfg.DataDir = b.TempDir()
		cfg.SnapshotEvery = time.Hour
		benchServer(b, cfg, benchReadHeavy)
	})
	// The 2PC tax, measured: a three-sub ATOMIC batch whose keys span all
	// three shards (every request is a prepare/commit group across three
	// WALs, executed in a coordination round) against the SAME batch shape
	// with all three keys on one shard (a member of the shard's group: one
	// shared append and listing). Both cells run the identical server
	// config and rotate the coordinating shard, so the ops/sec ratio prices
	// the cross-shard protocol — quiesce plus two-phase flush — against
	// plain group commit.
	for _, span := range []struct {
		name   string
		across bool
	}{
		{"sameshard", false},
		{"xshard", true},
	} {
		b.Run("atomic3/norec/batch16/workers1/shards3/"+span.name+"/group", func(b *testing.B) {
			cfg := benchConfig(votm.NOrec, 16)
			cfg.Shards = 3
			cfg.QueueDepth = 8192
			cfg.Durability = server.DurabilityGroup
			cfg.DataDir = b.TempDir()
			cfg.SnapshotEvery = time.Hour
			benchServerWindow(b, cfg, 6*benchChunk, benchAtomicSpan(span.across))
		})
	}
}

// benchAtomicSpan builds the three-sub ATOMIC workload for the cross-shard
// durable cells: each request PUTs three random preloaded keys, either one
// per shard (across) or all on one shard. The first sub — and with it the
// coordinating worker — rotates over the shards either way, so both cells
// spread coordination and fsyncs identically.
func benchAtomicSpan(across bool) func(*wire.Request, *rand.Rand, []byte) {
	var pools [3][]uint64
	for k := uint64(0); k < benchKeys; k++ {
		s := server.ShardOf(k, 3)
		pools[s] = append(pools[s], k)
	}
	pick := func(rng *rand.Rand, s int) uint64 {
		return pools[s][rng.Intn(len(pools[s]))]
	}
	return func(req *wire.Request, rng *rand.Rand, val []byte) {
		subs := req.Subs[:0]
		first := rng.Intn(3)
		for i := 0; i < 3; i++ {
			s := first
			if across {
				s = (first + i) % 3
			}
			subs = append(subs, wire.Sub{Kind: wire.SubPut, Key: pick(rng, s), Value: val})
		}
		*req = wire.Request{Op: wire.OpAtomic, Subs: subs}
	}
}

// benchConfig is the shared single-shard benchmark server shape.
func benchConfig(kind votm.EngineKind, batchMax int) server.Config {
	return server.Config{
		Shards:          1,
		WorkersPerShard: 1,
		QueueDepth:      1024,
		BatchMax:        batchMax,
		Engine:          kind,
		RequestTimeout:  30 * time.Second,
	}
}

const (
	benchKeys    = 1024 // preloaded key space
	benchHotKeys = 8    // CAS-contended hot set
	benchValLen  = 16
	benchWindow  = 512      // in-flight requests (stays under QueueDepth: no BUSY)
	benchChunk   = 32       // completions per credit message reader → writer
	benchWriteHW = 32 << 10 // flush threshold for the generator's write buffer
	benchLatN    = 8        // latency-sample every Nth request
)

// pctlNS picks the q-permille (500 = p50) entry from sorted latencies.
func pctlNS(sorted []int64, q int) float64 {
	return float64(sorted[(len(sorted)-1)*q/1000])
}

func benchServer(b *testing.B, cfg server.Config,
	build func(*wire.Request, *rand.Rand, []byte)) {
	benchServerOpts(b, cfg, benchWindow, false, build)
}

// benchServerWindow is benchServer with an explicit pipelining window. The
// durable cells need a window a few groups deep: responses release only at
// the fsync, so a window one group deep would stall the second worker and
// serialize execution behind the flush instead of overlapping them.
func benchServerWindow(b *testing.B, cfg server.Config, window int,
	build func(*wire.Request, *rand.Rand, []byte)) {
	benchServerOpts(b, cfg, window, false, build)
}

// benchServerOpts is the full harness. busyOK additionally accepts
// StatusBusy responses — the overload cells drive the server past its
// queue bound on purpose, and a shed request answered BUSY is the behavior
// under test, not an error; the shed fraction is reported as busy-share.
func benchServerOpts(b *testing.B, cfg server.Config, window int, busyOK bool,
	build func(*wire.Request, *rand.Rand, []byte)) {
	srv, addr := startServer(b, cfg)

	val := make([]byte, benchValLen)
	for i := range val {
		val[i] = byte(i)
	}
	// Preload the key space, then pin the hot set to the 8-byte value the
	// CAS workload expects (so its compares match and take the write path).
	pre := dialClient(b, addr, client.Options{PoolSize: 1, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	for k := uint64(0); k < benchKeys; k++ {
		if _, err := pre.Put(ctx, k, val); err != nil {
			b.Fatalf("preload key %d: %v", k, err)
		}
	}
	for k := uint64(0); k < benchHotKeys; k++ {
		if _, err := pre.Put(ctx, k, val[:8]); err != nil {
			b.Fatalf("preload hot key %d: %v", k, err)
		}
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)

	// Window credits flow reader → writer in chunks of benchChunk, so the
	// two goroutines meet at a channel once per chunk instead of once per
	// request — on a shared core, per-op channel handoffs would otherwise
	// tax both batch settings equally and compress the measured ratio.
	credits := make(chan int, window/benchChunk+1)
	readerDone := make(chan error, 1)
	// Tail latency rides along: every benchLatN-th request stamps its build
	// time into a slot keyed by request ID, and the reader diffs on arrival
	// (responses can come back out of order across workers, so it matches by
	// ID, not position). Stores and loads are atomic because the socket
	// round-trip orders them logically but not for the race detector. The
	// measured number is closed-loop latency — queueing in the pipelining
	// window included — which is what a client at this depth would see.
	sendNS := make([]int64, b.N/benchLatN+1)
	latNS := make([]int64, 0, len(sendNS))
	rng := rand.New(rand.NewSource(1))
	req := &wire.Request{}
	wbuf := make([]byte, 0, benchWriteHW+4096)
	flush := func() {
		if len(wbuf) == 0 {
			return
		}
		if _, err := nc.Write(wbuf); err != nil {
			b.Fatalf("write: %v", err)
		}
		wbuf = wbuf[:0]
	}

	var nBusy int64
	b.ResetTimer()
	go func() {
		resp := &wire.Response{}
		done := 0
		for i := 0; i < b.N; i++ {
			if err := wire.ReadResponseReuse(br, resp); err != nil {
				readerDone <- fmt.Errorf("response %d: %w", i, err)
				return
			}
			switch resp.Status {
			case wire.StatusOK, wire.StatusNotFound, wire.StatusCASMismatch:
			case wire.StatusBusy:
				if !busyOK {
					readerDone <- fmt.Errorf("response %d: status %v", i, resp.Status)
					return
				}
				nBusy++
			default:
				readerDone <- fmt.Errorf("response %d: status %v", i, resp.Status)
				return
			}
			if idx := int(resp.ID) - 1; idx%benchLatN == 0 {
				sent := atomic.LoadInt64(&sendNS[idx/benchLatN])
				latNS = append(latNS, time.Now().UnixNano()-sent)
			}
			if done++; done == benchChunk {
				credits <- done
				done = 0
			}
		}
		readerDone <- nil
	}()
	avail := window
	for i := 0; i < b.N; i++ {
		if avail == 0 {
			flush() // window exhausted: push buffered frames so the reader can drain
			avail += <-credits
		drain: // absorb any further banked credits without blocking
			for {
				select {
				case n := <-credits:
					avail += n
				default:
					break drain
				}
			}
		}
		avail--
		build(req, rng, val)
		req.ID = uint32(i + 1)
		if i%benchLatN == 0 {
			atomic.StoreInt64(&sendNS[i/benchLatN], time.Now().UnixNano())
		}
		wbuf, err = wire.AppendRequest(wbuf, req)
		if err != nil {
			b.Fatalf("encode: %v", err)
		}
		if len(wbuf) >= benchWriteHW {
			flush()
		}
	}
	flush()
	if err := <-readerDone; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
	if len(latNS) > 0 {
		sort.Slice(latNS, func(i, j int) bool { return latNS[i] < latNS[j] })
		b.ReportMetric(pctlNS(latNS, 500), "p50-ns")
		b.ReportMetric(pctlNS(latNS, 990), "p99-ns")
		b.ReportMetric(pctlNS(latNS, 999), "p999-ns")
	}
	var groups, groupOps, appends, fsyncs uint64
	for _, st := range srv.StatsAll() {
		groups += st.Groups
		groupOps += st.GroupOps
		appends += st.WalAppends
		fsyncs += st.Fsyncs
	}
	if groups > 0 {
		b.ReportMetric(float64(groupOps)/float64(groups), "group-size")
	}
	if appends > 0 {
		// fsyncs per appended group: < 1 means piggybacking is sharing flushes
		b.ReportMetric(float64(fsyncs)/float64(appends), "fsync-share")
	}
	if rs := srv.RoundStats(); rs.Rounds > 0 {
		// Tasks (spanning ATOMICs; no cell here scans) combined per coordination
		// round (the xshard cell).
		b.ReportMetric(rs.MeanTasks(), "tasks/round")
		if rs.Logged > 0 {
			// The share of logging rounds that executed beside an earlier
			// round's flush.
			b.ReportMetric(float64(rs.Overlapped)/float64(rs.Logged), "overlapped/round")
		}
	}
	if busyOK {
		// Shed fraction: BUSY answers (a full ring) per request.
		b.ReportMetric(float64(nBusy)/float64(b.N), "busy-share")
	}
}

// benchReadHeavy: 90% GET / 10% PUT over the preloaded key space.
func benchReadHeavy(req *wire.Request, rng *rand.Rand, val []byte) {
	if rng.Intn(10) == 0 {
		benchWriteHeavy(req, rng, val)
		return
	}
	*req = wire.Request{Op: wire.OpGet, Key: uint64(rng.Intn(benchKeys))}
}

// benchWriteHeavy: all PUTs over the preloaded key space.
func benchWriteHeavy(req *wire.Request, rng *rand.Rand, val []byte) {
	*req = wire.Request{Op: wire.OpPut, Key: uint64(rng.Intn(benchKeys)), Value: val}
}

// benchCASContended: CAS over a hot set of 8 keys, expectation preloaded to
// match — every request takes the full transactional compare-and-write path
// on a key every other in-flight request is also hitting.
func benchCASContended(req *wire.Request, rng *rand.Rand, val []byte) {
	*req = wire.Request{Op: wire.OpCAS, Key: uint64(rng.Intn(benchHotKeys)),
		OldValue: val[:8], Value: val[:8]}
}
