// Command bench is votm's end-to-end benchmark: one workload per
// invocation, in a single process (for the wire workloads an in-process
// server on a loopback listener and a raw-wire pipelined generator on two
// connections), with the audits on. bench/README.md describes the
// workloads, the metrics and how the cells were made to repeat.
//
//	bash bench/run.sh --workload kv-point --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is the JSON object the driver reads.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"votm"
	"votm/wire"
)

var workloads = []string{"kv-point", "kv-durable-atomic", "kv-scan-writers", "lib-hotcold"}

// opts is one run. traceOut and warmScale are not flags: the command line
// always measures the committed cell and writes the span file to its default
// place; only the smoke tests change them.
type opts struct {
	workload  string
	seed      int64
	seconds   int // one-second windows of the timed phase
	trace     bool
	traceOut  string  // span file of a traced run
	warmScale float64 // scales the fixed warm-up counts
}

func main() {
	o := opts{warmScale: 1}
	var trace, calibrate int
	flag.StringVar(&o.workload, "workload", "", "one of kv-point, kv-durable-atomic, kv-scan-writers, lib-hotcold")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 24, "length of the timed phase, in one-second windows")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, layer probes and a span file (.bench_build/trace/<workload>.jsonl)")
	flag.IntVar(&calibrate, "calibrate", 0, "run the workload k times as child processes (seeds seed..seed+k-1) and print each metric's spread")
	flag.Parse()
	o.trace = trace != 0
	if !slices.Contains(workloads, o.workload) || o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: bench -workload {%v} [-seed n] [-seconds s] [-trace 0|1] [-calibrate k]\n", workloads)
		os.Exit(2)
	}
	if calibrate > 0 {
		if err := runCalibrate(o, calibrate); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	// A hung server or a livelocked view must not outlive the driver's
	// 180 s limit: give up, and leave nothing behind in tmpfs.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: no result after 170 s, giving up")
		removeDataDirs()
		os.Exit(1)
	})
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, o.trace)
	if !rep.correct() {
		os.Exit(1)
	}
}

// run executes one workload and returns its report. An error means the run
// itself broke (transport, set-up); audit failures are in the report.
func run(o opts) (*report, error) {
	rep := newReport()
	rep.fact("workload %s  seed %d  windows %d x 1s  traced %v", o.workload, o.seed, o.seconds, o.trace)
	rep.fact("nproc %d  GOMAXPROCS %d  %s  %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	var tr *tracer
	if o.trace {
		tr = newTracer()
		if o.traceOut == "" {
			o.traceOut = filepath.Join(".bench_build", "trace", o.workload+".jsonl")
		}
	}
	root := tr.begin("run", 0)
	var err error
	if o.workload == "lib-hotcold" {
		err = runLib(o, rep, tr, root)
	} else {
		err = runKV(o, rep, tr, root)
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		n, err := tr.write(o.traceOut)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		rep.fact("trace file %s: %d spans", o.traceOut, n)
	} else {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	return rep, nil
}

// timedWindows splits the run's seconds: an untraced run times them all; a
// traced run times a third untraced and a third traced (the ratio of the
// two is trace.overhead_share) and leaves the rest to the layer probes.
func timedWindows(o opts) int {
	if o.trace {
		return max(1, o.seconds/3)
	}
	return o.seconds
}

// spanCap sizes a source's span buffer for the traced phase; untouched pages
// cost nothing, and a full buffer drops (and says so) instead of growing.
func spanCap(o opts) int { return timedWindows(o) * 600_000 }

// setupMetric files setup_s: the set-up's duration, at the nominal memory
// latency on a core-bound cell.
func setupMetric(rep *report, d time.Duration, refs []*memRef, coreBound bool) {
	refNs := refMedianNs(refs)
	rep.set("setup_s", d.Seconds()/slowdown(refNs, coreBound))
	rep.fact("set-up %.3f s as measured, memory reference %.0f ns", d.Seconds(), refNs)
}

// phaseMetrics files the metrics every workload derives from a timed phase
// the same way. On a core-bound cell throughput_ops_s is reported at the
// nominal memory latency (ref.go); everything else is as measured.
func phaseMetrics(rep *report, res *phaseResult, coreBound bool) {
	slow := slowdown(res.refNs, coreBound)
	rep.set("throughput_ops_s", res.throughput()*slow)
	rep.set("client.throughput_raw_ops_s", res.throughput())
	rep.set("proc.mem_ref_ns", res.refNs)
	p50, n := res.latency(0.5)
	p99, _ := res.latency(0.99)
	rep.set("client.lat_p50_us", p50)
	rep.set("client.lat_p99_us", p99)
	rep.set("client.lat_max_us", res.maxLatencyUs())
	rep.fact("throughput as measured %.0f ops/s; memory reference %.0f ns (nominal %.0f), core-bound %v: slowdown factor %.4f",
		res.throughput(), res.refNs, refNominalNs, coreBound, slow)
	rep.fact("windows %d: throughput min %.0f  median %.0f  max %.0f ops/s; %d latency samples (every %dth op on average)",
		len(res.winThr), slices.Min(res.winThr), res.throughput(), slices.Max(res.winThr), n, sampleEvery)
	rep.fact("per-window throughput %.0f", res.winThr)

	ops := float64(res.attempted)
	rep.set("proc.cpu_us_per_op", float64(res.proc[1].cpu-res.proc[0].cpu)/1e3/ops)
	rep.set("proc.allocs_per_op", float64(res.proc[1].mallocs-res.proc[0].mallocs)/ops)
	rep.set("proc.gc_cycles", float64(res.proc[1].numGC-res.proc[0].numGC))
	rep.set("proc.gc_pause_ms", float64(res.proc[1].pauseNs-res.proc[0].pauseNs)/1e6)
	rep.set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}

// traceMetrics files what only a traced run knows: the overhead of tracing
// and the per-name span totals.
func traceMetrics(rep *report, tr *tracer, untraced, traced *phaseResult) {
	rep.set("trace.overhead_share", 1-traced.throughput()/untraced.throughput())
	rep.fact("traced windows %d: throughput min %.0f  median %.0f  max %.0f ops/s",
		len(traced.winThr), slices.Min(traced.winThr), traced.throughput(), slices.Max(traced.winThr))
	for _, t := range tr.totals() {
		rep.fact("span %-8s n %8d  mean %9.2f us  (sampled %d: encode %.2f us, in flight [self] %.2f us, decode+audit %.2f us)",
			t.name, t.n, t.meanNs/1e3, t.sampledN, t.encNs/1e3, t.selfNs/1e3, t.decAuditNs/1e3)
	}
}

func runKV(o opts, rep *report, tr *tracer, root int) error {
	spec := kvSpecs[o.workload]
	if tr != nil {
		tr.nameOf = func(k uint8) string { return wire.Op(k).String() }
	}
	nWin := timedWindows(o)

	sp := tr.begin("setup", root)
	in, d, err := startKV(spec, o, nWin)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer in.discard()
	setupMetric(rep, d, in.refs(), !spec.durable)
	rep.set("server.new_s", in.newDur.Seconds())
	if spec.durable {
		rep.fact("DataDir %s (%s), modelled flush %v before each fdatasync", in.dataDir, fsName(in.dataDir), modelFlush)
	} else {
		rep.fact("DataDir none (durability off)")
	}

	sp = tr.begin("timed/untraced", root)
	res, err := in.timed(nWin, nil, sp)
	tr.end(sp)
	if err != nil {
		return err
	}
	var traced *phaseResult
	if tr != nil {
		for _, g := range in.gens {
			g.spans = make([]reqSpan, 0, spanCap(o))
			g.subSpans = make([]subSpan, 0, spanCap(o)/sampleEvery+1)
		}
		sp := tr.begin("timed/traced", root)
		traced, err = in.timed(nWin, tr, sp)
		tr.end(sp)
		if err != nil {
			return err
		}
		for _, g := range in.gens {
			if g.dropped > 0 {
				rep.fact("conn %d: span buffer full, %d request spans dropped", g.id, g.dropped)
			}
		}
	}

	// Audit: read everything back. The durable workload does it on a server
	// reopened from the same DataDir after a clean Shutdown; a traced run
	// first copies the quiescent DataDir — a crash image: full WAL, no clean
	// marker — to time real recovery on it afterwards.
	crashDir := ""
	if spec.durable {
		if tr != nil {
			if crashDir, err = copyTree(in.dataDir); err != nil {
				return fmt.Errorf("crash image: %w", err)
			}
			defer os.RemoveAll(crashDir)
		}
		d, err := in.shutdown()
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		rep.set("server.shutdown_s", d.Seconds())
		if err := in.reopen(in.dataDir); err != nil {
			return err
		}
	}
	sp = tr.begin("audit/sweep", root)
	err = in.sweep()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	in.tally(rep)

	phaseMetrics(rep, res, !spec.durable)
	kvLayerMetrics(rep, in, res)
	var pr *prober
	var fr *frames
	if tr != nil {
		// The probes that need the live server come before Shutdown.
		traceMetrics(rep, tr, res, traced)
		pr = &prober{tr: tr, parent: tr.begin("probe", root)}
		defer tr.end(pr.parent)
		if fr, err = captureFrames(in, o.seed, 1024); err != nil {
			return fmt.Errorf("frame capture: %w", err)
		}
		if err := pr.probeSyncRTT(rep, in.addr, o.seed); err != nil {
			return err
		}
	}
	down, err := in.shutdown()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if !spec.durable { // the durable workload timed its first Shutdown above
		rep.set("server.shutdown_s", down.Seconds())
	}
	if tr == nil {
		return nil
	}
	if spec.durable {
		if err := in.recoverCrashImage(rep, pr, crashDir); err != nil {
			return err
		}
	}
	root2 := dataRoot()
	for _, probe := range []func() error{
		func() error { return pr.probeWire(rep, fr) },
		func() error { return pr.probeRAC(rep, spec.workers) },
		func() error { return pr.probeView(rep) },
		func() error { return pr.probeIndex(rep, spec.workers, o.seed) },
		func() error { return pr.probeMemheap(rep) },
		func() error { return pr.probeWAL(rep, root2) },
	} {
		if err := probe(); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	kvSelfTime(rep, spec, res)
	return nil
}

// kvLayerMetrics derives the counter-based per-layer metrics from the
// Server.StatsAll deltas over the timed phase.
func kvLayerMetrics(rep *report, in *kvInstance, res *phaseResult) {
	var d wire.ShardStats // summed deltas
	var settled, effBatch float64
	var highWater uint64
	before := res.stats[0]
	for i, a := range res.stats[1] {
		b := before[i]
		d.Groups += a.Groups - b.Groups
		d.GroupOps += a.GroupOps - b.GroupOps
		d.Commits += a.Commits - b.Commits
		d.Aborts += a.Aborts - b.Aborts
		d.Escalations += a.Escalations - b.Escalations
		d.SuccessNs += a.SuccessNs - b.SuccessNs
		d.AbortNs += a.AbortNs - b.AbortNs
		d.QuotaMoves += a.QuotaMoves - b.QuotaMoves
		d.WalAppends += a.WalAppends - b.WalAppends
		d.WalBytes += a.WalBytes - b.WalBytes
		d.Fsyncs += a.Fsyncs - b.Fsyncs
		d.CrossShardGroups += a.CrossShardGroups - b.CrossShardGroups
		d.CrossShardPrepares += a.CrossShardPrepares - b.CrossShardPrepares
		d.PrepareAborts += a.PrepareAborts - b.PrepareAborts
		d.ScannedKeys += a.ScannedKeys - b.ScannedKeys
		settled += float64(a.SettledQuota)
		effBatch += float64(a.EffectiveBatch)
		highWater = max(highWater, a.QueueHighWater)
	}
	shards := float64(len(res.stats[1]))
	ops := float64(res.attempted)
	secs := float64(len(res.winThr))
	ratio := func(a, b uint64) float64 { return float64(a) / float64(b) }

	rep.set("wire.bytes_per_op", float64(res.wireBytes)/ops)
	rep.set("server.mean_group_size", ratio(d.GroupOps, d.Groups))
	rep.set("server.groups_per_s", float64(d.Groups)/secs)
	rep.set("server.effective_batch", effBatch/shards)
	rep.set("server.queue_high_water", float64(highWater))
	rep.set("server.busy_share", float64(res.busy)/ops)
	// Summed over shards, so a three-shard ATOMIC counts three times.
	rep.set("server.xshard_groups_per_op", float64(d.CrossShardGroups)/ops)
	rep.set("rac.quota_settled", settled/shards)
	rep.set("rac.quota_moves", float64(d.QuotaMoves))
	rep.set("rac.delta_q_hot", 0) // the library workload's views
	rep.set("rac.delta_q_cold", 0)
	rep.set("stm.commit_ratio", ratio(d.Commits, d.Commits+d.Aborts))
	rep.set("stm.tx_success_us", float64(d.SuccessNs)/1e3/float64(d.Commits))
	rep.set("stm.tx_abort_us", float64(d.AbortNs)/1e3/float64(d.Aborts))
	rep.set("stm.escalations", float64(d.Escalations))
	rep.set("index.scan_amplification", ratio(d.ScannedKeys, res.entries))
	rep.set("wal.fsyncs_per_op", float64(d.Fsyncs)/ops)
	rep.set("wal.appends_per_op", float64(d.WalAppends)/ops)
	rep.set("wal.fsync_share", ratio(d.Fsyncs, d.WalAppends))
	rep.set("wal.prepares_per_op", float64(d.CrossShardPrepares)/ops)
	rep.set("wal.prepare_aborts", float64(d.PrepareAborts))
	if in.spec.durable {
		// User bytes: every written key carries one 8-byte key and one value.
		// Units average (2·1 + 3 + 3)/4 = 2 keys per request.
		rep.set("wal.bytes_per_user_byte", float64(d.WalBytes)/(ops*2*(8+valueLen)))
		rep.set("wal.model_flush_us", in.flush.meanUs())
	}
}

// kvSelfTime attributes the measured CPU per operation to the layers by
// their probe costs and call counts; what is left is the server's own:
// connection I/O, dispatch, scheduling — and the generator, which shares
// the process.
func kvSelfTime(rep *report, spec *kvSpec, res *phaseResult) {
	v := rep.values
	ops := float64(res.attempted)
	gets, puts := spec.getsPerOp, spec.putsPerOp
	walRecs := 0.0
	if spec.durable {
		walRecs = puts
	}
	layers := []struct {
		name string
		us   float64
	}{
		{"wire", (v["wire.encode_req_ns"] + v["wire.decode_req_ns"] + v["wire.encode_resp_ns"] + v["wire.decode_resp_ns"]) / 1e3},
		{"index", (gets*v["index.get_ns"] + puts*v["index.put_ns"] + float64(res.entries)/ops*v["index.scan_ns_per_entry"]) / 1e3},
		{"memheap", puts * v["memheap.alloc_free_ns"] / 1e3},
		{"wal", walRecs * v["wal.append_ns_per_rec"] / 1e3},
	}
	self := v["proc.cpu_us_per_op"]
	for _, l := range layers {
		self -= l.us
		rep.fact("layer self time %-8s %8.3f us/op", l.name, l.us)
	}
	rep.fact("layer self time %-8s %8.3f us/op (remainder of proc.cpu_us_per_op)", "server", self)
	rep.set("server.self_us_per_op", self)
}

func runLib(o opts, rep *report, tr *tracer, root int) error {
	if tr != nil {
		tr.nameOf = func(k uint8) string { return [...]string{"hot", "cold", "audit"}[k] }
	}
	nWin := timedWindows(o)
	sp := tr.begin("setup", root)
	in, d, err := startLib(o, nWin)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setupMetric(rep, d, in.refs(), true)
	rep.fact("DataDir none (library workload)")

	sp = tr.begin("timed/untraced", root)
	res, snaps, err := in.timed(nWin, nil, sp)
	tr.end(sp)
	if err != nil {
		return err
	}
	var traced *phaseResult
	if tr != nil {
		for _, t := range in.threads {
			t.spans = make([]reqSpan, 0, spanCap(o))
		}
		sp := tr.begin("timed/traced", root)
		traced, _, err = in.timed(nWin, tr, sp)
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	// Final audit, after every thread has stopped.
	th := in.rt.RegisterThread()
	sums, err := in.audit(context.Background(), th)
	th.Release()
	if err != nil {
		return err
	}
	if sums != [4]int64{} {
		rep.failf("final audit: array sums %v, want all zero", sums)
	}
	in.tally(rep)

	phaseMetrics(rep, res, true)
	libLayerMetrics(rep, snaps)
	if tr == nil {
		return nil
	}
	traceMetrics(rep, tr, res, traced)
	pr := &prober{tr: tr, parent: tr.begin("probe", root)}
	defer tr.end(pr.parent)
	if err := pr.probeRAC(rep, libThreads); err != nil {
		return err
	}
	return pr.probeView(rep)
}

// libLayerMetrics derives the RAC and STM metrics from the View.Snapshot
// deltas of the hot (index 0) and cold view over the timed phase.
func libLayerMetrics(rep *report, snaps [2][2]votm.ViewSnapshot) {
	var d votm.Totals
	var settled float64
	var moves int64
	for i := range snaps[1] {
		a, b := snaps[1][i], snaps[0][i]
		d.Commits += a.Totals.Commits - b.Totals.Commits
		d.Aborts += a.Totals.Aborts - b.Totals.Aborts
		d.SuccessNs += a.Totals.SuccessNs - b.Totals.SuccessNs
		d.AbortNs += a.Totals.AbortNs - b.Totals.AbortNs
		d.Escalations += a.Totals.Escalations - b.Totals.Escalations
		settled += float64(a.SettledQuota)
		moves += a.QuotaMoves - b.QuotaMoves
	}
	rep.set("rac.quota_settled", settled/2)
	rep.set("rac.quota_moves", float64(moves))
	rep.set("rac.delta_q_hot", snaps[1][0].Delta)
	rep.set("rac.delta_q_cold", snaps[1][1].Delta)
	rep.set("stm.commit_ratio", float64(d.Commits)/float64(d.Commits+d.Aborts))
	rep.set("stm.tx_success_us", float64(d.SuccessNs)/1e3/float64(d.Commits))
	rep.set("stm.tx_abort_us", float64(d.AbortNs)/1e3/float64(d.Aborts))
	rep.set("stm.escalations", float64(d.Escalations))
}
