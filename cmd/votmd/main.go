// Command votmd serves a sharded transactional key-value API over TCP.
// Each shard is one VOTM view (its own STM instance and RAC admission
// controller); the wire protocol is documented in docs/PROTOCOL.md and
// package client is the Go client.
//
// votmd drains gracefully on SIGTERM/SIGINT: it stops accepting, finishes
// every in-flight transaction and answers it, then closes the RAC
// controllers and exits.
//
// Usage:
//
//	votmd -addr :7421 -shards 8 -workers 4 -engine norec
//
// Cluster mode (docs/PROTOCOL.md §Cluster): `-cluster-seed` hosts the
// shard-map service (standalone with -durability off, or as the first data
// node with -durability group); `-join addr` joins an existing cluster as a
// member whose shards replicate leader WAL streams.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"votm"
	"votm/internal/cluster"
	"votm/internal/server"
	"votm/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":7421", "TCP listen address")
		shards   = flag.Int("shards", 8, "number of shards (one VOTM view each)")
		workers  = flag.Int("workers", 4, "transaction workers per shard (RAC quota bound N)")
		queue    = flag.Int("queue", 128, "bounded per-shard request queue (overflow => BUSY)")
		batchMax = flag.Int("batch-max", 16, "max requests one worker group-commits per transaction (1 = no grouping)")
		maxVal   = flag.Int("max-value", 64<<10, "maximum value size in bytes")
		engine   = flag.String("engine", "norec", "TM engine: norec | oreceager | tl2")
		reqTO    = flag.Duration("request-timeout", 5*time.Second, "per-request transaction timeout")
		idleTO   = flag.Duration("idle-timeout", 5*time.Minute, "idle connection timeout")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		statsSec = flag.Duration("stats-every", 0, "log per-shard stats at this interval (0 = off)")

		autoSplit = flag.Bool("auto-split", false, "split hot shards online, every 250ms, shards of 1024 keys and more, up to 8 sub-shards (live key migration; ATOMIC batches spanning sub-shards commit via the multi-view 2PC coordinator)")

		durability = flag.String("durability", server.DurabilityOff, "crash durability: off | group (per-shard WAL, fsync per write group) | snapshot-only")
		dataDir    = flag.String("data-dir", "", "durability root directory (required unless -durability off)")
		snapEvery  = flag.Duration("snapshot-every", 30*time.Second, "periodic per-shard snapshot interval")

		clusterSeed = flag.Bool("cluster-seed", false, "host the cluster shard-map service; with -durability group this node also serves data as the first member, with -durability off it runs the map service standalone (no data plane)")
		join        = flag.String("join", "", "seed node address to join as a cluster member (requires -durability group; mutually exclusive with -cluster-seed)")
		replicas    = flag.Int("replicas", 1, "desired WAL-stream followers per shard in cluster mode")
		advertise   = flag.String("advertise", "", "address other nodes and routing clients reach this node at (defaults to -addr)")
		replTO      = flag.Duration("repl-timeout", 2*time.Second, "semi-synchronous replication wait before a lagging follower is detached")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "votmd: ", log.LstdFlags|log.Lmicroseconds)
	logf := func(f string, a ...any) { logger.Printf(f, a...) }
	clustered := *clusterSeed || *join != ""
	if *advertise == "" {
		*advertise = *addr
	}

	// Standalone control plane: -cluster-seed without a data plane runs only
	// the shard-map service — the process data nodes join and routing clients
	// bootstrap from. Shard count and replica target come from the same flags
	// the members use.
	if *clusterSeed && *durability == server.DurabilityOff {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			logger.Fatalf("listen: %v", err)
		}
		svc := cluster.NewService(*shards, *replicas, logf)
		svc.StartHealth(cluster.HealthEvery, cluster.HealthFailures, cluster.HealthTimeout)
		done := make(chan error, 1)
		go func() { done <- cluster.Serve(ln, svc) }()
		logger.Printf("shard-map service (standalone seed): %d shards, %d replicas, on %s", *shards, *replicas, *addr)
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
		select {
		case sig := <-sigCh:
			logger.Printf("received %v: closing shard-map service", sig)
			svc.Close()
			<-done
		case err := <-done:
			if err != nil {
				logger.Fatalf("serve: %v", err)
			}
		}
		return
	}

	var kind votm.EngineKind
	switch *engine {
	case "norec":
		kind = votm.NOrec
	case "oreceager":
		kind = votm.OrecEagerRedo
	case "tl2":
		kind = votm.TL2
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q (norec | oreceager | tl2)\n", *engine)
		os.Exit(2)
	}

	cfg := server.Config{
		Addr:            *addr,
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queue,
		BatchMax:        *batchMax,
		MaxValueLen:     *maxVal,
		Engine:          kind,
		RequestTimeout:  *reqTO,
		IdleTimeout:     *idleTO,
		AutoSplit:       *autoSplit,

		Durability:    *durability,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,

		Logf: logf,
	}
	if clustered {
		m, err := cluster.NewMember(cluster.Config{Seed: *clusterSeed, Join: *join, Replicas: *replicas,
			Advertise: *advertise, ReplTimeout: *replTO, Logf: logf})
		if err != nil {
			logger.Fatalf("init: %v", err)
		}
		cfg.Cluster = m
	}
	srv, err := server.New(cfg)
	if err != nil {
		logger.Fatalf("init: %v", err)
	}
	for _, r := range srv.Recovery() {
		how := "tail replay"
		if r.CleanStart {
			how = "clean start (replay skipped)"
		}
		logger.Printf("shard %d recovered: %s, snapshot seq %d (%d keys), %d records replayed, %d torn bytes truncated",
			r.Shard, how, r.SnapshotSeq, r.SnapshotKeys, r.Replayed, r.TruncatedBytes)
	}

	if *statsSec > 0 {
		durable := *durability != server.DurabilityOff
		go func() {
			for range time.Tick(*statsSec) {
				for _, r := range srv.StatsAll() {
					line := fmt.Sprintf("shard %d [%s]: Q=%d commits=%d aborts=%d keys=%d delta=%.3f splits=%d scans=%d scannedKeys=%d ringFull=%d qhwWin=%d",
						r.Shard, r.Engine, r.Quota, r.Commits, r.Aborts, r.Keys, r.Delta, r.Repartitions, r.Scans, r.ScannedKeys,
						r.RingFullEvents, r.QueueHighWaterWin)
					if durable {
						age := "never"
						if r.SnapshotAgeSec != wire.SnapshotNever {
							age = fmt.Sprintf("%ds", r.SnapshotAgeSec)
						}
						line += fmt.Sprintf(" walAppends=%d walBytes=%d fsyncs=%d snapAge=%s replayed=%d",
							r.WalAppends, r.WalBytes, r.Fsyncs, age, r.ReplayedRecords)
					}
					if clustered {
						line += fmt.Sprintf(" followerAcks=%d replLag=%d handoffs=%d",
							r.FollowerAcks, r.ReplicaLagRecords, r.Handoffs)
					}
					logger.Print(line)
				}
				rs := srv.RoundStats()
				logger.Printf("cross-shard rounds: %d rounds, %d tasks (%d SCAN pages), %.1f tasks/round, largest %d; %d logged, %d beside an earlier round's flush, %d in flight at most, coordinator waited %v for a flight",
					rs.Rounds, rs.Tasks, rs.Pages, rs.MeanTasks(), rs.Largest, rs.Logged, rs.Overlapped, rs.InDoubtHigh, time.Duration(rs.FlightWaitNs))
				if as := srv.AckStats(); as.Flushes > 0 {
					logger.Printf("ack stage: %d flush cycles, %.1f groups/flush, %d groups behind a round in doubt, %d unanswered ops at most, %d back-pressure waits, flushers idle %.0f%%",
						as.Flushes, float64(as.Groups)/float64(as.Flushes), as.Gated, as.HighWater, as.Stalls, 100*float64(as.IdleNs)/float64(as.UpNs))
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	logger.Printf("serving %d shards (%s, %d workers each) on %s", *shards, *engine, *workers, *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("received %v: draining (budget %v)", sig, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Fatalf("drain incomplete: %v", err)
		}
		logger.Printf("drained cleanly")
	case err := <-done:
		if err != nil {
			logger.Fatalf("serve: %v", err)
		}
	}
}
