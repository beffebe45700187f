package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"votm/internal/faultinject"
	"votm/internal/server"
	"votm/wire"
)

// kvSpec is one wire workload. The benchmark sets only the server.Config
// fields named here (and Shards/QueueDepth in config()) and leaves every
// other field at the package default, so a later change of a default is
// measured.
type kvSpec struct {
	mix     mixer
	durable bool
	workers int    // WorkersPerShard
	warmOps uint64 // fixed warm-up requests per connection: set-up takes ≈4 s
	units   func(conn int) (units []unit, nSingle, nSame int)
	// Index reads and writes per request in the mix, for the layer
	// self-time attribution of a traced run.
	getsPerOp, putsPerOp float64
}

const kvShards = 4

var kvSpecs = map[string]*kvSpec{
	"kv-point": {mix: pointMix, workers: 1, warmOps: 1_750_000, units: singleKeyUnits,
		getsPerOp: 0.8, putsPerOp: 0.2},
	// (1 + 1 + 3 + 3) / 4 = 2 keys written per request.
	"kv-durable-atomic": {mix: durableMix, workers: 2, warmOps: 12_000, units: durableUnits, durable: true,
		putsPerOp: 2},
	"kv-scan-writers": {mix: scanMix, workers: 1, warmOps: 1_000_000, units: singleKeyUnits,
		putsPerOp: float64(scanEvery-1) / scanEvery},
}

// singleKeyUnits gives connection conn the keys k with k % numConns == conn.
func singleKeyUnits(conn int) ([]unit, int, int) {
	us := make([]unit, unitsPerGen)
	for i := range us {
		us[i] = unit{keys: [3]uint64{uint64(i*numConns + conn)}, n: 1}
	}
	return us, len(us), 0
}

// durableUnits splits the connection's keys into single-key units, ATOMIC
// triples inside one shard and ATOMIC triples with one key on each of three
// shards: a quarter of the keys to each kind of triple, the rest singles.
func durableUnits(conn int) ([]unit, int, int) {
	var byShard [kvShards][]uint64
	for k := conn; k < numKeys; k += numConns {
		s := server.ShardOf(uint64(k), kvShards)
		byShard[s] = append(byShard[s], uint64(k))
	}
	take := func(s int) (uint64, bool) {
		if len(byShard[s]) == 0 {
			return 0, false
		}
		k := byShard[s][0]
		byShard[s] = byShard[s][1:]
		return k, true
	}
	triples := unitsPerGen / 4 / 3
	var same, cross []unit
	for t := 0; t < triples; t++ {
		var u unit
		for i := 0; i < 3; i++ {
			if k, ok := take((t + i) % kvShards); ok {
				u.keys[u.n] = k
				u.n++
			}
		}
		if u.n == 3 {
			cross = append(cross, u)
		}
	}
	for t := 0; t < triples; t++ {
		s := t % kvShards
		if len(byShard[s]) < 3 {
			continue
		}
		var u unit
		for i := 0; i < 3; i++ {
			u.keys[i], _ = take(s)
		}
		u.n = 3
		same = append(same, u)
	}
	var us []unit
	for s := range byShard {
		for _, k := range byShard[s] {
			us = append(us, unit{keys: [3]uint64{k}, n: 1})
		}
	}
	nSingle := len(us)
	us = append(us, same...)
	us = append(us, cross...)
	return us, nSingle, len(same)
}

// durableMix: request i is a PUT for i mod 4 ∈ {0,1}, a same-shard ATOMIC
// for 2 and a three-shard ATOMIC for 3.
var durableMix = mixer{
	next: func(g *gen, s *slot) {
		switch g.seq % 4 {
		case 0, 1:
			g.write(s, g.rng.Intn(g.nSingle))
		case 2:
			g.write(s, g.nSingle+g.rng.Intn(g.nSame))
		default:
			first := g.nSingle + g.nSame
			g.write(s, first+g.rng.Intn(len(g.units)-first))
		}
	},
	check: checkWrite,
}

// flushModel stands in for the storage device on the durable workload: the
// WAL's fsync hook sleeps once before the (tmpfs, near-free) fdatasync, so
// what the program controls — how many flushes an operation waits for —
// stays the main cost and the device's own 2× swings are left out.
type flushModel struct {
	sumNs atomic.Int64
	n     atomic.Int64
}

const modelFlush = 250 * time.Microsecond

func (m *flushModel) hook(op faultinject.DiskOp) error {
	if op == faultinject.DiskSync {
		t := time.Now()
		time.Sleep(modelFlush)
		m.sumNs.Add(int64(time.Since(t)))
		m.n.Add(1)
	}
	return nil
}

func (m *flushModel) meanUs() float64 {
	if n := m.n.Load(); n > 0 {
		return float64(m.sumNs.Load()) / float64(n) / 1e3
	}
	return 0
}

// kvInstance is one running server with its generator connections.
type kvInstance struct {
	spec    *kvSpec
	srv     *server.Server
	addr    string
	serveWG sync.WaitGroup
	gens    []*gen
	dataDir string
	flush   *flushModel
	newDur  time.Duration
}

func (in *kvInstance) config() server.Config {
	cfg := server.Config{
		Shards:          kvShards,
		QueueDepth:      1024, // above numConns*window: BUSY never fires
		WorkersPerShard: in.spec.workers,
	}
	if in.spec.durable {
		cfg.Durability = server.DurabilityGroup
		cfg.DataDir = in.dataDir
		cfg.SnapshotEvery = time.Hour // measure the WAL, not the snapshotter
		cfg.DiskFaultHook = in.flush.hook
	}
	return cfg
}

// serve starts a server on in.dataDir and a fresh loopback listener.
func (in *kvInstance) serve() error {
	t := time.Now()
	srv, err := server.New(in.config())
	if err != nil {
		return err
	}
	in.newDur = time.Since(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return err
	}
	in.srv, in.addr = srv, ln.Addr().String()
	in.serveWG.Add(1)
	go func() {
		defer in.serveWG.Done()
		_ = srv.Serve(ln) // returns nil once Shutdown closes the listener
	}()
	return nil
}

func (in *kvInstance) shutdown() (time.Duration, error) {
	if in.srv == nil {
		return 0, nil
	}
	for _, g := range in.gens {
		g.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t := time.Now()
	err := in.srv.Shutdown(ctx)
	d := time.Since(t)
	in.serveWG.Wait()
	in.srv = nil
	return d, err
}

// dataDirs holds every live data directory, for the watchdog in main.
var dataDirs sync.Map

func removeDataDirs() {
	dataDirs.Range(func(dir, _ any) bool {
		_ = os.RemoveAll(dir.(string))
		return true
	})
}

// discard stops the instance and removes its files.
func (in *kvInstance) discard() {
	_, _ = in.shutdown()
	if in.dataDir != "" {
		_ = os.RemoveAll(in.dataDir)
		dataDirs.Delete(in.dataDir)
	}
}

// tally adds the connections' attempted and failed operations, and the
// first failure of each, to the report.
func (in *kvInstance) tally(rep *report) {
	for _, g := range in.gens {
		rep.attempted, rep.failed = rep.attempted+g.attempted, rep.failed+g.failed
		if g.firstFail != "" {
			rep.failf("%s", g.firstFail)
		}
	}
}

func (in *kvInstance) refs() []*memRef {
	refs := make([]*memRef, len(in.gens))
	for i, g := range in.gens {
		refs[i] = &g.ref
	}
	return refs
}

func (in *kvInstance) connect() error {
	for _, g := range in.gens {
		g.resetSlots()
		if err := g.connect(in.addr); err != nil {
			return err
		}
	}
	return nil
}

// reopen starts a server on dir (the instance must be shut down) and
// reconnects the generators, keeping their audit state.
func (in *kvInstance) reopen(dir string) error {
	in.dataDir = dir
	if err := in.serve(); err != nil {
		return fmt.Errorf("reopen %s: %w", dir, err)
	}
	return in.connect()
}

// recoverCrashImage opens a server on a copy of the DataDir taken while the
// server was quiescent but running — what a crash would leave: every WAL
// record, no snapshot, no clean-shutdown marker — and reports how long
// recovery took and how many records it replayed; then it sweeps, because
// every acknowledged write must have survived.
func (in *kvInstance) recoverCrashImage(rep *report, pr *prober, crashDir string) error {
	sp := pr.tr.begin("probe/wal/recover", pr.parent)
	defer pr.tr.end(sp)
	mainDir := in.dataDir
	defer func() { in.dataDir = mainDir }()
	if err := in.reopen(crashDir); err != nil {
		return err
	}
	var replayed uint64
	for _, rs := range in.srv.Recovery() {
		replayed += rs.Replayed
	}
	rep.set("wal.recover_s", in.newDur.Seconds())
	rep.set("wal.replayed_records", float64(replayed))
	if err := in.sweep(); err != nil {
		return fmt.Errorf("sweep of the crash image: %w", err)
	}
	for _, g := range in.gens {
		if g.firstFail != "" {
			rep.failf("crash image: %s", g.firstFail)
		}
	}
	_, err := in.shutdown()
	return err
}

// copyTree copies the directory tree at src into a fresh sibling directory.
func copyTree(src string) (string, error) {
	dst, err := os.MkdirTemp(filepath.Dir(src), "crash-")
	if err != nil {
		return "", err
	}
	dataDirs.Store(dst, true)
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		_ = os.RemoveAll(dst)
		return "", err
	}
	return dst, nil
}

// runEach runs one phase per connection, all at once.
func (in *kvInstance) runEach(phaseOf func(g *gen) *phase) error {
	errs := make([]error, len(in.gens))
	var wg sync.WaitGroup
	for i, g := range in.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = g.run(phaseOf(g))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runPhase runs the same phase on every connection.
func (in *kvInstance) runPhase(p *phase) error {
	return in.runEach(func(*gen) *phase { return p })
}

// preload writes version 1 of every unit (the connections own different
// numbers of units on the durable workload, hence a phase each).
func (in *kvInstance) preload() error {
	return in.runEach(func(g *gen) *phase {
		g.cursor = 0
		return &phase{mix: preloadMix, count: uint64(len(g.units))}
	})
}

// sweep reads back every key through the generators (see sweepMix).
func (in *kvInstance) sweep() error {
	return in.runEach(func(g *gen) *phase {
		return &phase{mix: sweepMix, count: g.sweepCount()}
	})
}

// startKV is the set-up whose duration setup_s reports: server.New (with the
// WAL open on the durable workload), listen, dial, preload of every unit
// and a fixed-count warm-up — real work whose duration tracks the program's
// speed.
func startKV(spec *kvSpec, o opts, maxWin int) (*kvInstance, time.Duration, error) {
	t0 := time.Now()
	in := &kvInstance{spec: spec}
	if spec.durable {
		dir, err := os.MkdirTemp(dataRoot(), "wal-")
		if err != nil {
			return nil, 0, err
		}
		in.dataDir, in.flush = dir, &flushModel{}
		dataDirs.Store(dir, true)
	}
	if err := in.serve(); err != nil {
		in.discard()
		return nil, 0, err
	}
	for c := 0; c < numConns; c++ {
		units, nSingle, nSame := spec.units(c)
		g := newGen(c, o.seed, units, maxWin)
		g.nSingle, g.nSame = nSingle, nSame
		in.gens = append(in.gens, g)
	}
	err := in.connect()
	if err == nil {
		err = in.preload()
	}
	if err == nil {
		err = in.runPhase(&phase{mix: spec.mix, count: max(1, uint64(float64(spec.warmOps)*o.warmScale))})
	}
	if err != nil {
		in.discard()
		return nil, 0, err
	}
	return in, time.Since(t0), nil
}

// procSnap is what the process-level per-layer metrics are deltas of.
type procSnap struct {
	cpu     time.Duration // user + system
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phaseResult is one timed phase, cut into one-second windows.
type phaseResult struct {
	winThr    []float64 // audited-OK operations completed in window i
	winLat    []hist    // latency samples of window i, all sources merged
	attempted uint64    // operations sent in the phase (drain included)
	busy      uint64
	wireBytes uint64
	entries   uint64  // SCAN entries received
	refNs     float64 // median of the memory reference during the phase
	proc      [2]procSnap
	stats     [2][]wire.ShardStats
}

// add merges one source's per-window counters into the result.
func (r *phaseResult) add(winOps []uint64, winLat []hist) {
	for w := range r.winThr {
		r.winThr[w] += float64(winOps[w])
		r.winLat[w].merge(&winLat[w])
	}
}

func (r *phaseResult) throughput() float64 { return median(r.winThr) }

// latency returns the median over windows of the per-window q-quantile, in
// microseconds, and the number of samples behind it.
func (r *phaseResult) latency(q float64) (us float64, samples uint64) {
	per := make([]float64, 0, len(r.winLat))
	for i := range r.winLat {
		if r.winLat[i].n > 0 {
			per = append(per, r.winLat[i].quantile(q)/1e3)
			samples += r.winLat[i].n
		}
	}
	return median(per), samples
}

func (r *phaseResult) maxLatencyUs() float64 {
	var m int64
	for i := range r.winLat {
		m = max(m, r.winLat[i].max)
	}
	return float64(m) / 1e3
}

func (in *kvInstance) counters() (attempted, busy, bytes, entries uint64) {
	for _, g := range in.gens {
		attempted += g.attempted
		busy += g.busy
		bytes += g.wireBytes
		entries += g.entries
	}
	return
}

// timed runs the workload's mix for nWin one-second windows.
func (in *kvInstance) timed(nWin int, tr *tracer, parent int) (*phaseResult, error) {
	res := &phaseResult{winThr: make([]float64, nWin), winLat: make([]hist, nWin)}
	a0, b0, w0, e0 := in.counters()
	for _, r := range in.refs() {
		r.h.reset()
	}
	res.stats[0] = in.srv.StatsAll()
	res.proc[0] = takeProcSnap()
	p := &phase{mix: in.spec.mix, t0: time.Now(), nWin: nWin, tracer: tr}
	err := in.runPhase(p)
	res.proc[1] = takeProcSnap()
	res.stats[1] = in.srv.StatsAll()
	a1, b1, w1, e1 := in.counters()
	res.attempted, res.busy, res.wireBytes, res.entries = a1-a0, b1-b0, w1-w0, e1-e0
	res.refNs = refMedianNs(in.refs())
	for _, g := range in.gens {
		res.add(g.winOps, g.winLat)
	}
	if tr != nil {
		tr.addWindows(parent, p.t0, nWin)
		for _, g := range in.gens {
			tr.addSource(g.spans, g.subSpans)
		}
	}
	return res, err
}

// dataRoot is where the durable workload keeps its WAL and the WAL probes
// their scratch logs: tmpfs when the box has one (/dev/shm), because the
// modelled flush stands in for the device — on the checkout's virtio disk
// the same cell's median latency spread is 0.22 against 0.03 on tmpfs — and the
// build directory inside the checkout otherwise. Every directory made there
// is removed when the run ends. fsName reports which it was.
var dataRoot = sync.OnceValue(func() string {
	if d, err := os.MkdirTemp("/dev/shm", "votm-bench-probe-"); err == nil {
		_ = os.Remove(d)
		return "/dev/shm"
	}
	d := filepath.Join(".bench_build", "data")
	_ = os.MkdirAll(d, 0o755) // a failure surfaces at the first MkdirTemp in it
	return d
})

// fsName names the filesystem holding path, from statfs's magic number.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
