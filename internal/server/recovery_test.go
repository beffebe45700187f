package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"votm/client"
	"votm/internal/faultinject"
	"votm/internal/server"
	"votm/wire"
)

// durableConfig is the base configuration the recovery tests start from: one
// shard so every key shares a WAL, no snapshot ticker interference, group
// durability into a per-test temp dir.
func durableConfig(t testing.TB) server.Config {
	return server.Config{
		Shards:        1,
		Durability:    server.DurabilityGroup,
		DataDir:       t.TempDir(),
		SnapshotEvery: time.Hour,
	}
}

// copyTree is the shared crash-copy helper (group_test.go).
var copyTree = server.CopyTree

func u64le(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  server.Config
		want string
	}{
		{"missing data dir", server.Config{Durability: server.DurabilityGroup}, "DataDir"},
		{"unknown mode", server.Config{Durability: "paranoid", DataDir: t.TempDir()}, "paranoid"},
		// A removed mode is refused, never reinterpreted as another.
		{"removed mode", server.Config{Durability: "snapshot-only", DataDir: t.TempDir()}, `unknown Config.Durability "snapshot-only"`},
		{"unknown engine", server.Config{Engine: "bogus"}, `unknown Config.Engine "bogus"`},
		// Zero means the default; a negative value is an error, never a
		// silent default or a disabled mechanism.
		{"negative shards", server.Config{Shards: -1}, "Shards must not be negative"},
		{"negative shard words", server.Config{ShardWords: -1}, "ShardWords must not be negative"},
		{"negative workers", server.Config{WorkersPerShard: -1}, "WorkersPerShard must not be negative"},
		{"negative queue depth", server.Config{QueueDepth: -1}, "QueueDepth must not be negative"},
		{"negative batch max", server.Config{BatchMax: -1}, "BatchMax must not be negative"},
		{"negative adjust window", server.Config{AdjustEvery: -1}, "AdjustEvery must not be negative"},
		{"negative conflict retries", server.Config{MaxConflictRetries: -1}, "MaxConflictRetries must not be negative"},
		{"negative request timeout", server.Config{RequestTimeout: -time.Second}, "RequestTimeout must not be negative, got -1s"},
		{"negative snapshot interval", server.Config{SnapshotEvery: -time.Second}, "SnapshotEvery must not be negative, got -1s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := server.New(tc.cfg)
			if err == nil {
				t.Fatalf("New accepted invalid config %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDurableCleanRestart drains a durable server gracefully and boots a
// second one on the same data directory: the clean-shutdown marker must let
// it skip replay entirely, and every mutation — puts, deletes, CAS, ATOMIC
// adds — must survive byte-for-byte.
func TestDurableCleanRestart(t *testing.T) {
	cfg := durableConfig(t)
	cfg.Shards = 2
	srv, addr := startServer(t, cfg)
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()

	oracle := map[uint64][]byte{}
	for k := uint64(0); k < 200; k++ {
		v := []byte(fmt.Sprintf("value-%d", k))
		if _, err := c.Put(ctx, k, v); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		oracle[k] = v
	}
	for k := uint64(0); k < 200; k += 7 {
		if err := c.Delete(ctx, k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		delete(oracle, k)
	}
	if err := c.CAS(ctx, 3, oracle[3], []byte("cas-new")); err != nil {
		t.Fatalf("cas: %v", err)
	}
	oracle[3] = []byte("cas-new")
	adds := keysOnShard(srv, 0, 3, 1000)
	for round := 0; round < 5; round++ {
		subs := make([]wire.Sub, len(adds))
		for i, k := range adds {
			subs[i] = wire.Sub{Kind: wire.SubAdd, Key: k, Delta: 3}
		}
		if _, err := c.Atomic(ctx, subs); err != nil {
			t.Fatalf("atomic add: %v", err)
		}
	}
	for _, k := range adds {
		oracle[k] = u64le(15)
	}

	shCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	srv2, addr2 := startServer(t, cfg)
	for _, r := range srv2.Recovery() {
		if !r.CleanStart {
			t.Errorf("shard %d: clean drain did not produce a clean start: %+v", r.Shard, r)
		}
		if r.Replayed != 0 {
			t.Errorf("shard %d: replayed %d records after a clean drain", r.Shard, r.Replayed)
		}
	}
	c2 := dialClient(t, addr2, client.Options{})
	for k, want := range oracle {
		got, err := c2.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %d after restart: %v", k, err)
		}
		if string(got) != string(want) {
			t.Errorf("key %d: got %q want %q", k, got, want)
		}
	}
	for k := uint64(0); k < 200; k += 7 {
		if _, err := c2.Get(ctx, k); !errors.Is(err, wire.ErrNotFound) {
			t.Errorf("deleted key %d resurrected: err=%v", k, err)
		}
	}
}

// TestDurableDirtyRestartReplaysTail snapshots the data directory while the
// server is still live (every acknowledged group is already fsynced) and
// boots a server on the copy: with no clean marker and no snapshot it must
// rebuild the whole state from the WAL tail alone.
func TestDurableDirtyRestartReplaysTail(t *testing.T) {
	cfg := durableConfig(t)
	_, addr := startServer(t, cfg)
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()

	oracle := map[uint64][]byte{}
	for k := uint64(0); k < 128; k++ {
		v := []byte(fmt.Sprintf("tail-%d", k))
		if _, err := c.Put(ctx, k, v); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		oracle[k] = v
	}
	for k := uint64(0); k < 128; k += 5 {
		if err := c.Delete(ctx, k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		delete(oracle, k)
	}

	crashDir := t.TempDir()
	copyTree(t, cfg.DataDir, crashDir)

	cfg2 := cfg
	cfg2.DataDir = crashDir
	srv2, addr2 := startServer(t, cfg2)
	rec := srv2.Recovery()
	if len(rec) != 1 {
		t.Fatalf("recovery stats for %d shards, want 1", len(rec))
	}
	if rec[0].CleanStart {
		t.Error("dirty directory reported a clean start")
	}
	if rec[0].Replayed == 0 {
		t.Error("no records replayed from a dirty WAL")
	}
	// Replay reaches memory as groups, and STATS counts them like any group.
	if st := srv2.StatsAll()[0]; st.Groups == 0 || st.GroupOps != rec[0].Replayed {
		t.Errorf("after replay: groups=%d groupOps=%d, want >0 groups carrying the %d replayed records", st.Groups, st.GroupOps, rec[0].Replayed)
	}
	c2 := dialClient(t, addr2, client.Options{})
	for k, want := range oracle {
		got, err := c2.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %d after dirty restart: %v", k, err)
		}
		if string(got) != string(want) {
			t.Errorf("key %d: got %q want %q", k, got, want)
		}
	}
	for k := uint64(0); k < 128; k += 5 {
		if _, err := c2.Get(ctx, k); !errors.Is(err, wire.ErrNotFound) {
			t.Errorf("deleted key %d resurrected: err=%v", k, err)
		}
	}
}

// TestWALFaultTakesShardReadOnly drives writes into injected disk faults at
// each site (append refused, torn append, fsync failure). The faulted group
// must answer TX_FAULT, the shard must stay read-only for writes afterwards,
// reads must keep serving, and a restart (fault-free) must recover every
// write that was acknowledged OK.
func TestWALFaultTakesShardReadOnly(t *testing.T) {
	sites := []struct {
		name string
		fi   faultinject.Config
	}{
		{"append", faultinject.Config{DiskAppendErrEvery: 10}},
		{"torn", faultinject.Config{DiskTornEvery: 10}},
		{"sync", faultinject.Config{DiskSyncErrEvery: 10}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			cfg := durableConfig(t)
			cfg.WorkersPerShard = 1
			cfg.BatchMax = 1
			cfg.DiskFaultHook = faultinject.New(site.fi).DiskHook()
			srv, addr := startServer(t, cfg)
			c := dialClient(t, addr, client.Options{})
			ctx := context.Background()

			acked := map[uint64][]byte{}
			faulted := false
			for k := uint64(0); k < 100; k++ {
				v := []byte(fmt.Sprintf("%s-%d", site.name, k))
				_, err := c.Put(ctx, k, v)
				switch {
				case err == nil:
					if faulted {
						t.Fatalf("put %d succeeded after the shard went read-only", k)
					}
					acked[k] = v
				case errors.Is(err, wire.ErrTxFault):
					faulted = true
				default:
					t.Fatalf("put %d: unexpected error %v", k, err)
				}
			}
			if !faulted {
				t.Fatal("no injected fault fired in 100 writes")
			}
			if len(acked) == 0 {
				t.Fatal("no writes acknowledged before the fault")
			}

			// Reads keep serving on the read-only shard; every other write
			// kind is refused with TX_FAULT.
			for k, want := range acked {
				got, err := c.Get(ctx, k)
				if err != nil || string(got) != string(want) {
					t.Fatalf("read-only shard: get %d = %q, %v", k, got, err)
				}
				break
			}
			if err := c.Delete(ctx, 0); !errors.Is(err, wire.ErrTxFault) {
				t.Errorf("delete on read-only shard: %v, want TX_FAULT", err)
			}
			if _, err := c.Atomic(ctx, []wire.Sub{{Kind: wire.SubAdd, Key: 0, Delta: 1}}); !errors.Is(err, wire.ErrTxFault) {
				t.Errorf("atomic on read-only shard: %v, want TX_FAULT", err)
			}

			shCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(shCtx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}

			// Restart without the fault hook: acknowledged writes are durable
			// by contract; TX_FAULT'd writes may be present or absent.
			cfg2 := durableConfig(t)
			cfg2.DataDir = cfg.DataDir
			srv2, addr2 := startServer(t, cfg2)
			if rec := srv2.Recovery(); rec[0].CleanStart {
				t.Error("read-only shard produced a clean-shutdown marker")
			}
			c2 := dialClient(t, addr2, client.Options{})
			for k, want := range acked {
				got, err := c2.Get(ctx, k)
				if err != nil {
					t.Fatalf("acked key %d lost after fault+restart: %v", k, err)
				}
				if string(got) != string(want) {
					t.Errorf("acked key %d: got %q want %q", k, got, want)
				}
			}
		})
	}
}

// TestGroupCommitFsyncPiggyback hammers one durable shard from many clients
// and checks the WAL meters: exactly one append per committed group (the
// whole point of piggybacking on group commit), fsyncs at or below appends,
// and the same numbers served over the wire as in-process.
func TestGroupCommitFsyncPiggyback(t *testing.T) {
	cfg := durableConfig(t)
	cfg.WorkersPerShard = 4
	cfg.BatchMax = 16
	srv, addr := startServer(t, cfg)
	ctx := context.Background()

	const (
		writers = 8
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		c := dialClient(t, addr, client.Options{})
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := uint64(w*perW + i)
				if _, err := c.Put(ctx, k, u64le(k)); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()

	stats := srv.StatsAll()
	if len(stats) != 1 {
		t.Fatalf("stats for %d shards, want 1", len(stats))
	}
	st := stats[0]
	if st.Groups == 0 {
		t.Fatal("no groups committed")
	}
	if st.WalAppends != st.Groups {
		t.Errorf("walAppends=%d != groups=%d: WAL must append exactly once per committed write group", st.WalAppends, st.Groups)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.WalAppends {
		t.Errorf("fsyncs=%d outside (0, walAppends=%d]: piggybacking must share fsyncs", st.Fsyncs, st.WalAppends)
	}
	if st.WalBytes == 0 {
		t.Error("walBytes=0 after committed writes")
	}
	if st.SnapshotAgeSec != wire.SnapshotNever {
		t.Errorf("snapshotAgeSec=%d, want SnapshotNever before the first snapshot", st.SnapshotAgeSec)
	}

	// The same meters must round-trip over the wire (protocol v2 fields).
	c := dialClient(t, addr, client.Options{})
	wireStats, err := c.Stats(ctx, wire.AllShards)
	if err != nil {
		t.Fatalf("stats over wire: %v", err)
	}
	ws := wireStats[0]
	if ws.WalAppends < st.WalAppends || ws.Fsyncs < st.Fsyncs || ws.WalBytes < st.WalBytes {
		t.Errorf("wire stats went backwards: wire=%+v in-process=%+v", ws, st)
	}
	if ws.WalAppends != ws.Groups {
		t.Errorf("wire walAppends=%d != groups=%d", ws.WalAppends, ws.Groups)
	}
}

// TestDurableReplayedRecordsStat checks that the STATS replay meter reports
// the records a dirty restart actually replayed.
func TestDurableReplayedRecordsStat(t *testing.T) {
	cfg := durableConfig(t)
	_, addr := startServer(t, cfg)
	c := dialClient(t, addr, client.Options{})
	ctx := context.Background()
	for k := uint64(0); k < 50; k++ {
		if _, err := c.Put(ctx, k, u64le(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	crashDir := t.TempDir()
	copyTree(t, cfg.DataDir, crashDir)

	cfg2 := cfg
	cfg2.DataDir = crashDir
	srv2, _ := startServer(t, cfg2)
	st := srv2.StatsAll()[0]
	rec := srv2.Recovery()[0]
	if st.ReplayedRecords == 0 || st.ReplayedRecords != rec.Replayed {
		t.Errorf("stats ReplayedRecords=%d, recovery Replayed=%d: want equal and nonzero", st.ReplayedRecords, rec.Replayed)
	}
	if st.ReplayedRecords != 50 {
		t.Errorf("replayed %d records, want 50", st.ReplayedRecords)
	}
}
