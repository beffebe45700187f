// Command votmd serves a sharded transactional key-value API over TCP.
// Each shard is one VOTM view (its own STM instance and RAC admission
// controller); the wire protocol is documented in docs/PROTOCOL.md and
// package client is the Go client.
//
// votmd drains gracefully on SIGTERM/SIGINT: it stops accepting, finishes
// every in-flight transaction and answers it, then closes the RAC
// controllers and exits, within a fixed 30 s budget. Values are capped at
// 64 KiB, idle connections close after 5 minutes and durable shards snapshot
// every 30 s; none of these is a flag. The startup log names the bound
// address, so -addr 127.0.0.1:0 picks a free port.
//
// votmd is memory-only unless -data-dir names a directory: then every shard
// logs its write groups to its own WAL there (group durability) and recovers
// from it at the next start.
//
// Usage:
//
//	votmd -addr :7421 -shards 8 -workers 4 -engine norec
//	votmd -addr :7421 -data-dir /var/lib/votmd
//
// Cluster mode (docs/PROTOCOL.md §Cluster): `-cluster-seed` hosts the
// shard-map service (standalone without -data-dir, or as the first data
// node with it); `-join addr` joins an existing cluster as a member whose
// shards replicate leader WAL streams.
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

// drainTimeout is the graceful drain budget on SIGTERM/SIGINT.
const drainTimeout = 30 * time.Second

func main() {
	var (
		addr     = flag.String("addr", ":7421", "TCP listen address")
		shards   = flag.Int("shards", 8, "number of shards (one VOTM view each)")
		workers  = flag.Int("workers", 4, "transaction workers per shard (RAC quota bound N)")
		queue    = flag.Int("queue", 128, "bounded per-shard request queue (overflow => BUSY)")
		batchMax = flag.Int("batch-max", 16, "max requests one worker group-commits per transaction (1 = no grouping)")
		engine   = flag.String("engine", "norec", "TM engine: norec | oreceager | tl2")
		reqTO    = flag.Duration("request-timeout", 5*time.Second, "per-request transaction timeout")
		statsSec = flag.Duration("stats-every", 0, "log per-shard stats at this interval (0 = off)")

		autoSplit = flag.Bool("auto-split", false, "split hot shards online, every 250ms, shards of 1024 keys and more, up to 8 sub-shards (live key migration; ATOMIC batches spanning sub-shards commit via the multi-view 2PC coordinator)")

		dataDir = flag.String("data-dir", "", "durability root directory; setting it turns on crash durability (per-shard WAL, at most one fsync per write group), empty = memory-only")

		clusterSeed = flag.Bool("cluster-seed", false, "host the cluster shard-map service; with -data-dir this node also serves data as the first member, without it the map service runs standalone (no data plane)")
		join        = flag.String("join", "", "seed node address to join as a cluster member (requires -data-dir; mutually exclusive with -cluster-seed)")
		replicas    = flag.Int("replicas", 1, "desired WAL-stream followers per shard in cluster mode")
		advertise   = flag.String("advertise", "", "address other nodes and routing clients reach this node at (defaults to -addr)")
		replTO      = flag.Duration("repl-timeout", 2*time.Second, "semi-synchronous replication wait before a lagging follower is detached")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "votmd: ", log.LstdFlags|log.Lmicroseconds)
	logf := func(f string, a ...any) { logger.Printf(f, a...) }
	clustered := *clusterSeed || *join != ""
	durable := *dataDir != ""
	if *advertise == "" {
		*advertise = *addr
	}
	// Standalone control plane: -cluster-seed without a data plane runs only
	// the shard-map service — the process data nodes join and routing clients
	// bootstrap from. Shard count and replica target come from the same flags
	// the members use, and are refused where a member would refuse them.
	standalone := *clusterSeed && !durable
	if standalone {
		switch {
		case *join != "":
			logger.Fatalf("init: -cluster-seed and -join are mutually exclusive")
		case *shards < 1:
			logger.Fatalf("init: -shards must be at least 1, got %d", *shards)
		case *replicas < 0:
			logger.Fatalf("init: -replicas must not be negative, got %d", *replicas)
		}
	}
	if *join != "" && !durable {
		logger.Fatalf("init: -join requires -data-dir (a member's shards replicate their WAL)")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	if standalone {
		svc := cluster.NewService(*shards, *replicas, logf)
		svc.StartHealth(cluster.HealthEvery, cluster.HealthFailures, cluster.HealthTimeout)
		done := make(chan error, 1)
		go func() { done <- cluster.Serve(ln, svc) }()
		logger.Printf("shard-map service (standalone seed): %d shards, %d replicas, on %s", *shards, *replicas, ln.Addr())
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

	cfg := server.Config{
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queue,
		BatchMax:        *batchMax,
		Engine:          votm.EngineKind(*engine),
		RequestTimeout:  *reqTO,
		AutoSplit:       *autoSplit,
		DataDir:         *dataDir,

		Logf: logf,
	}
	if durable {
		cfg.Durability = server.DurabilityGroup
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
				logger.Printf("cross-shard rounds: %d rounds, %d tasks (%d SCAN pages), %.1f tasks/round, largest %d; %d logged, %d beside an earlier round's flush, %d in flight at most, coordinator waited %v for a flight, views paused %v",
					rs.Rounds, rs.Tasks, rs.Pages, rs.MeanTasks(), rs.Largest, rs.Logged, rs.Overlapped, rs.InDoubtHigh, time.Duration(rs.FlightWaitNs), time.Duration(rs.PausedNs))
				if as := srv.AckStats(); as.Flushes > 0 {
					logger.Printf("ack stage: %d flush cycles, %.1f groups/flush, %d groups behind a round in doubt, %d unanswered ops at most, %d back-pressure waits, flushers idle %.0f%%",
						as.Flushes, float64(as.Groups)/float64(as.Flushes), as.Gated, as.HighWater, as.Stalls, 100*float64(as.IdleNs)/float64(as.UpNs))
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	logger.Printf("serving %d shards (%s, %d workers each) on %s", *shards, *engine, *workers, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("received %v: draining (budget %v)", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
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
