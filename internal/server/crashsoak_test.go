package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"votm/client"
	"votm/internal/server"
	"votm/wire"
)

// The crash soak re-executes this test binary as a child process that serves
// a durable store, SIGKILLs it mid-burst, restarts it on the same data
// directory, and checks the recovered state against an ambiguity-aware
// oracle. SIGKILL is the real thing — no injected crash point, no cooperative
// shutdown — so recovery has to cope with whatever the dying process left on
// disk, including torn tail frames.
//
// Oracle invariants, per writer lane (each lane ATOMIC-adds 1 to the same K
// keys, sequentially; same-shard lanes keep all keys on one shard,
// cross-shard lanes spread them over every shard so each batch is a 2PC
// group spanning all three WALs):
//
//   - atomicity: after every restart the K counters are EQUAL — a group is
//     never partially applied, whether it lived in one WAL or was a
//     prepare/commit pair across three of them;
//   - durability: the counter is >= the lane's acknowledged batches (an OK
//     response means fsynced) and <= its attempted batches (an errored or
//     in-flight batch may have committed just before the kill).

const (
	crashChildEnv = "VOTM_CRASH_CHILD"
	crashDirEnv   = "VOTM_CRASH_DIR"
	soakRoundsEnv = "VOTM_SOAK_ROUNDS"

	soakShards   = 3
	laneKeys     = 4 // keys per same-shard ATOMIC lane
	writerLanes  = 4
	crossLanes   = 3 // lanes whose keys span all soakShards shards
	addrFileName = "addr"
)

// TestCrashRecoveryChild is the re-executed child: it serves a durable store
// on a loopback port, publishes the address, and blocks until SIGKILLed.
func TestCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if os.Getenv(crashChildEnv) == "" || dir == "" {
		t.Skip("crash-soak child; driven by TestCrashRecoverySoak")
	}
	srv, err := server.New(server.Config{
		Shards:          soakShards,
		WorkersPerShard: 2,
		BatchMax:        16,
		Durability:      server.DurabilityGroup,
		DataDir:         dir,
		SnapshotEvery:   200 * time.Millisecond, // exercise snapshot+tail recovery
	})
	if err != nil {
		t.Fatalf("child: server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("child: listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()

	// Publish the address atomically so the parent never reads a half-write.
	tmp := filepath.Join(dir, addrFileName+".tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("child: write addr: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, addrFileName)); err != nil {
		t.Fatalf("child: publish addr: %v", err)
	}
	select {} // wait for SIGKILL
}

// lane is one sequential ATOMIC writer's oracle state, accumulated across
// crash rounds in the parent.
type lane struct {
	keys      []uint64
	acked     uint64 // batches acknowledged OK (durable by contract)
	attempted uint64 // batches issued (upper bound on commits)
}

// laneKeysOnShard picks n keys that all hash to the same shard, starting the
// scan at base (parent-side keysOnShard — the parent has no *Server).
func laneKeysOnShard(base uint64, n int) []uint64 {
	shard := server.ShardOf(base, soakShards)
	keys := []uint64{base}
	for k := base + 1; len(keys) < n; k++ {
		if server.ShardOf(k, soakShards) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// laneKeysAcrossShards picks one key per shard starting at base, so a batch
// over them is a cross-shard 2PC group touching every WAL.
func laneKeysAcrossShards(base uint64) []uint64 {
	keys := make([]uint64, 0, soakShards)
	for shard := 0; shard < soakShards; shard++ {
		k := base
		for server.ShardOf(k, soakShards) != shard {
			k++
		}
		keys = append(keys, k)
		base = k + 1
	}
	return keys
}

func TestCrashRecoverySoak(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("child process must not recurse")
	}
	if testing.Short() {
		t.Skip("subprocess soak; skipped in -short")
	}
	rounds := 3
	if s := os.Getenv(soakRoundsEnv); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad %s=%q", soakRoundsEnv, s)
		}
		rounds = n
	}
	dir := t.TempDir()
	lanes := make([]*lane, 0, writerLanes+crossLanes)
	for i := 0; i < writerLanes; i++ {
		lanes = append(lanes, &lane{keys: laneKeysOnShard(uint64(10_000*(i+1)), laneKeys)})
	}
	// Cross-shard lanes: every batch spans all shards, so a SIGKILL can land
	// anywhere in the prepare/commit window and the equality oracle below
	// proves all-or-nothing across WALs.
	for i := 0; i < crossLanes; i++ {
		lanes = append(lanes, &lane{keys: laneKeysAcrossShards(uint64(100_000 * (i + 1)))})
	}

	for round := 0; round < rounds; round++ {
		addr, kill := startCrashChild(t, dir)

		c, err := client.Dial(addr, client.Options{RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatalf("round %d: dial: %v", round, err)
		}
		verifyLanes(t, c, lanes, round)

		// Burst: every lane ATOMIC-adds concurrently until the kill lands.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, ln := range lanes {
			wg.Add(1)
			go func(ln *lane) {
				defer wg.Done()
				ctx := context.Background()
				subs := make([]wire.Sub, len(ln.keys))
				for i, k := range ln.keys {
					subs[i] = wire.Sub{Kind: wire.SubAdd, Key: k, Delta: 1}
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					ln.attempted++
					if _, err := c.Atomic(ctx, subs); err != nil {
						return // killed mid-flight: ambiguous, stays attempted-only
					}
					ln.acked++
				}
			}(ln)
		}
		time.Sleep(time.Duration(50+round*20%150) * time.Millisecond)
		kill()
		close(stop)
		wg.Wait()
		_ = c.Close()
	}

	// One last restart to judge the final kill.
	addr, kill := startCrashChild(t, dir)
	c, err := client.Dial(addr, client.Options{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("final dial: %v", err)
	}
	verifyLanes(t, c, lanes, rounds)
	total := uint64(0)
	for _, ln := range lanes {
		total += ln.acked
	}
	t.Logf("soak: %d rounds, %d acknowledged batches survived SIGKILL recovery", rounds, total)
	_ = c.Close()
	kill()
}

// startCrashChild launches the re-executed child on dir and returns its
// address plus a kill func (SIGKILL + reap). Any stale address file is
// removed first so the parent can't race onto a dead server.
func startCrashChild(t *testing.T, dir string) (string, func()) {
	t.Helper()
	addrFile := filepath.Join(dir, addrFileName)
	_ = os.Remove(addrFile)

	cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoveryChild$", "-test.v=false")
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashDirEnv+"="+dir)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			killed := false
			kill := func() {
				if killed {
					return
				}
				killed = true
				_ = cmd.Process.Kill()
				<-exited
			}
			t.Cleanup(kill)
			return string(b), kill
		}
		select {
		case err := <-exited:
			t.Fatalf("child exited before serving: %v\n%s", err, childOut.String())
		default:
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("child did not publish an address\n%s", childOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyLanes checks every lane's atomicity and durability invariants against
// the freshly recovered child.
func verifyLanes(t *testing.T, c *client.Client, lanes []*lane, round int) {
	t.Helper()
	ctx := context.Background()
	for li, ln := range lanes {
		counts := make([]uint64, len(ln.keys))
		for i, k := range ln.keys {
			v, err := c.Get(ctx, k)
			switch {
			case err == nil:
				if len(v) != 8 {
					t.Fatalf("round %d lane %d key %d: counter is %d bytes", round, li, k, len(v))
				}
				counts[i] = binary.LittleEndian.Uint64(v)
			case errors.Is(err, wire.ErrNotFound):
				counts[i] = 0
			default:
				t.Fatalf("round %d lane %d key %d: get: %v", round, li, k, err)
			}
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("round %d lane %d: PARTIALLY APPLIED GROUP: counters %v over keys %v",
					round, li, counts, ln.keys)
			}
		}
		if got := counts[0]; got < ln.acked || got > ln.attempted {
			t.Fatalf("round %d lane %d: counter %d outside [acked %d, attempted %d]: %s",
				round, li, got, ln.acked, ln.attempted,
				map[bool]string{true: "acknowledged writes lost", false: "phantom commits"}[got < ln.acked])
		}
		// Committed-but-unacknowledged batches from the kill window are now
		// settled state: fold them into the oracle floor.
		ln.acked = counts[0]
		ln.attempted = counts[0]
	}
}
