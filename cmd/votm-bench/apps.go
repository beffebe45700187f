package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"votm/internal/core"
	"votm/internal/eigenbench"
	"votm/internal/intruder"
	"votm/internal/progress"
	"votm/internal/theory"
	"votm/internal/trace"
)

// runFlags are the flags eigen and intruder share.
type runFlags struct {
	mode, engine    string
	threads, q1, q2 int
	suicide         bool
	stall, deadline time.Duration
}

// register adds the shared flags to fs; deadline is the app's default and
// views name the two objects in the quota flags' help.
func (f *runFlags) register(fs *flag.FlagSet, deadline time.Duration, views [2]string) {
	fs.StringVar(&f.mode, "mode", "multi-view", "single-view | multi-view | multi-TM | TM")
	fs.StringVar(&f.engine, "engine", "norec", "norec | oreceager | tl2")
	fs.IntVar(&f.threads, "threads", 16, "number of worker threads (N)")
	fs.IntVar(&f.q1, "q1", 0, views[0]+" quota (0 = adaptive)")
	fs.IntVar(&f.q2, "q2", 0, views[1]+" quota (0 = adaptive)")
	fs.BoolVar(&f.suicide, "suicide-cm", false, "use the suicide contention manager (OrecEagerRedo)")
	fs.DurationVar(&f.stall, "stall", 2*time.Second, "livelock stall window")
	fs.DurationVar(&f.deadline, "deadline", deadline, "absolute run deadline")
}

// config resolves the parsed flags, exiting on an unknown mode or engine.
func (f *runFlags) config() progress.RunConfig {
	modes := map[string]progress.Mode{
		"single-view": progress.SingleView, "multi-view": progress.MultiView,
		"multi-TM": progress.MultiTM, "multi-tm": progress.MultiTM,
		"TM": progress.PlainTM, "tm": progress.PlainTM,
	}
	m, ok := modes[f.mode]
	if !ok {
		fail(2, "unknown mode %q", f.mode)
	}
	eng := core.EngineKind(f.engine)
	if eng != core.NOrec && eng != core.OrecEagerRedo && eng != core.TL2 {
		fail(2, "unknown engine %q", f.engine)
	}
	return progress.RunConfig{
		Engine:      eng,
		Mode:        m,
		Quotas:      [2]int{f.q1, f.q2},
		SuicideCM:   f.suicide,
		StallWindow: f.stall,
		Deadline:    f.deadline,
	}
}

// printRun prints the runtime line (suffix appended) and one line per view.
func printRun(res progress.Result, names []string, suffix string) {
	if res.Livelock {
		fmt.Printf("LIVELOCK (%s) after %v\n", res.Reason, res.Elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("runtime: %v%s\n", res.Elapsed.Round(time.Microsecond), suffix)
	}
	for i, v := range res.Views {
		delta := "N/A"
		if !math.IsNaN(v.Delta) {
			delta = fmt.Sprintf("%.3f", v.Delta)
		}
		fmt.Printf("view %s: Q=%d #tx=%d #abort=%d t_success=%v t_aborted=%v delta(Q)=%s moves=%d\n",
			names[i], v.Quota, v.Commits, v.Aborts,
			time.Duration(v.SuccessNs).Round(time.Microsecond),
			time.Duration(v.AbortNs).Round(time.Microsecond),
			delta, v.QuotaMoves)
	}
}

// runEigen runs the modified two-view Eigenbench (paper §III-A) with full
// parameter control.
func runEigen(args []string) {
	fs := flag.NewFlagSet("eigen", flag.ExitOnError)
	var rf runFlags
	rf.register(fs, 2*time.Minute, [2]string{"view 1", "view 2"})
	loops := fs.Int("loops", 1000, "transactions per thread per view")
	adaptive := fs.Bool("adaptive", false, "force adaptive RAC on both views")
	seed := fs.Int64("seed", 1, "workload seed")
	traceCSV := fs.String("tracecsv", "", "write each view's quota moves (at_ms,from,to,delta,rule) to FILE.<view>.csv")
	_ = fs.Parse(args)

	cfg := rf.config()
	if *adaptive {
		cfg.Quotas = [2]int{}
	}
	p := eigenbench.Scaled(rf.threads, *loops)
	p.Seed = *seed

	fmt.Println(eigenbench.Describe(cfg))
	res, err := eigenbench.Run(cfg, p)
	if err != nil {
		fail(1, "error: %v", err)
	}
	if *traceCSV != "" {
		writeSeries(res.Decisions, len(res.Views), *traceCSV)
	}
	printRun(res, []string{"1", "2"}, "")
}

// writeSeries writes the quota moves of views 1..views from the run's
// decision log to prefix.<view>.csv and prints each view's quota timeline.
// The log keeps the last trace.Capacity decisions: when it dropped quota
// moves, the series start late, and the run says so.
func writeSeries(log *trace.Log, views int, prefix string) {
	kept := int64(0)
	for _, d := range log.Entries() {
		if d.Loop == trace.Quota {
			kept++
		}
	}
	if dropped := log.Count(trace.Quota) - kept; dropped > 0 {
		fmt.Printf("trace: the decision log dropped the %d oldest quota moves; the series hold the last %d\n", dropped, kept)
	}
	for id := 1; id <= views; id++ {
		name := fmt.Sprintf("%s.%d.csv", prefix, id)
		var b bytes.Buffer
		_ = log.WriteCSV(&b, id) // a buffer takes every write
		if err := os.WriteFile(name, b.Bytes(), 0o644); err != nil {
			fail(1, "trace: %v", err)
		}
		fmt.Printf("view %d quota timeline: %s  (series: %s)\n", id, log.Timeline(id), name)
	}
}

// runIntruder runs the STAMP-Intruder reproduction (paper §III-B). Flags
// mirror STAMP: -a attack percent, -l max fragments, -n flows, -s seed.
func runIntruder(args []string) {
	fs := flag.NewFlagSet("intruder", flag.ExitOnError)
	var rf runFlags
	rf.register(fs, 5*time.Minute, [2]string{"queue view", "dictionary view"})
	nFlows := fs.Int("n", 4096, "number of flows (-n)")
	maxFrags := fs.Int("l", 128, "max fragments per flow (-l)")
	attack := fs.Int("a", 10, "attack percentage (-a)")
	seed := fs.Int64("s", 1, "seed (-s)")
	_ = fs.Parse(args)

	cfg := rf.config()
	p := intruder.Params{Threads: rf.threads, NumFlows: *nFlows, MaxFrags: *maxFrags, AttackPct: *attack, Seed: *seed}
	fmt.Printf("generating %d flows (-a%d -l%d -s%d)…\n", *nFlows, *attack, *maxFrags, *seed)
	w := intruder.Generate(p)
	fmt.Printf("%d fragments, %d attack flows\n", len(w.Fragments), w.Attacks)

	res, err := intruder.Run(cfg, p, w)
	if err != nil {
		fail(1, "error: %v", err)
	}
	names := []string{"all"}
	if cfg.Mode.MultipleViews() {
		names = []string{"queue", "dictionary"}
	}
	printRun(res.Result, names, fmt.Sprintf(" (%s, %s)", cfg.Mode, cfg.Engine))
	fmt.Printf("flows completed: %d/%d, attacks found: %d/%d, checksum errors: %d, alloc errors: %d\n",
		res.FlowsCompleted, p.NumFlows, res.AttacksFound, w.Attacks,
		res.ChecksumErrors, res.AllocErrors)
	if res.FlowsCompleted != int64(p.NumFlows) && !res.Livelock {
		os.Exit(1)
	}
}

// runModel evaluates the RAC analytical model (paper §II-A) for a synthetic
// workload: the predicted makespan sweep over Q (Equations 1–3), the
// Observation 1 decision at each Q, and the multi-view decomposition of
// Observation 2 / Equation 6.
func runModel(args []string) {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	n := fs.Int("n", 16, "thread count N")
	tx := fs.Int("tx", 100, "number of transactions in the set")
	c := fs.Float64("c", 12, "expected aborts per transaction (c_i)")
	d := fs.Float64("d", 5, "average aborted-attempt time (d_i)")
	t := fs.Float64("t", 1, "conflict-free duration (t_i)")
	c2 := fs.Float64("c2", 0.05, "cold-view c_i for the Observation 2 demo")
	_ = fs.Parse(args)

	hot := make(theory.Set, *tx)
	cold := make(theory.Set, *tx)
	for i := range hot {
		hot[i] = theory.Tx{C: *c, D: *d, T: *t}
		cold[i] = theory.Tx{C: *c2, D: *d, T: *t}
	}

	fmt.Printf("workload: n=%d transactions, N=%d threads\n", *tx, *n)
	fmt.Printf("hot view:  δ = %.3f (δ>1 ⇒ RAC wins, Observation 1 says decrease Q)\n",
		theory.DeltaRatio(hot, *n))
	fmt.Printf("cold view: δ = %.3f\n\n", theory.DeltaRatio(cold, *n))

	fmt.Println("makespan sweep (hot view):")
	qs := []int{}
	for q := 1; q <= *n; q *= 2 {
		qs = append(qs, q)
	}
	fmt.Printf("  conventional TM (Eq.1): %.4g\n", theory.MakespanTM(hot, *n))
	for _, row := range theory.Predict(hot, *n, qs) {
		dir := theory.Observation1(theory.DeltaQ(hot.SumCD(), hot.SumT(), row.Q))
		fmt.Printf("  %v   Observation1: %s\n", row, dir)
	}
	fmt.Printf("  optimal Q (exhaustive): %d\n\n", theory.OptimalQ(hot, *n))

	q1 := theory.OptimalQ(hot, *n)
	q2 := theory.OptimalQ(cold, *n)
	for _, q := range qs {
		mv := theory.MultiViewMakespan([]theory.Set{hot, cold}, *n, []int{q1, q2})
		sv := theory.SingleViewMakespan([]theory.Set{hot, cold}, *n, q)
		premise, holds := theory.Observation2Holds(hot, cold, *n, q1, q, q2)
		fmt.Printf("Q=%-3d single-view makespan=%.4g  multi-view(Q1=%d,Q2=%d)=%.4g  premise=%v eq6-holds=%v\n",
			q, sv, q1, q2, mv, premise, holds)
	}
}
