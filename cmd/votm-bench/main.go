// Command votm-bench regenerates the paper's evaluation tables (III–X) and
// runs the paper's pieces standalone through three subcommands: eigen (the
// two-view Eigenbench, §III-A), intruder (STAMP Intruder, §III-B) and model
// (the RAC analytical model, §II-A).
//
// Usage:
//
//	votm-bench -table all            # every table at the default scale
//	votm-bench -table 3              # Table III only
//	votm-bench -table 9 -scale quick # fast smoke run
//	votm-bench -table 6 -scale paper # full paper scale (slow)
//	votm-bench -table 5 -loops 1000 -threads 8
//	votm-bench -ablations            # ablations A1-A5 instead of the tables
//
//	votm-bench eigen -mode multi-view -engine oreceager -q1 1 -q2 16
//	votm-bench eigen -mode single-view -engine norec -q1 8 -loops 5000
//	votm-bench eigen -mode multi-view -adaptive
//	votm-bench intruder -mode multi-view -engine norec -n 4096
//	votm-bench intruder -mode single-view -engine oreceager -q1 4 -n 1024
//	votm-bench model -n 16 -c 12 -d 5 -t 1     # hot workload: δ > 1
//	votm-bench model -n 16 -c 0.1 -d 1 -t 10   # cold workload: δ ≪ 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"votm/internal/harness"
)

func main() {
	if len(os.Args) > 1 {
		sub := map[string]func([]string){"eigen": runEigen, "intruder": runIntruder, "model": runModel}
		if run, ok := sub[os.Args[1]]; ok {
			run(os.Args[2:])
			return
		}
	}
	tables()
}

// fail prints an error and exits with code.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// tables regenerates the paper's tables, or the ablations.
func tables() {
	var (
		table     = flag.String("table", "all", "table to regenerate: 3..10, III..X, or 'all'")
		scale     = flag.String("scale", "default", "scale preset: quick | default | paper")
		threads   = flag.Int("threads", 0, "override thread count N")
		loops     = flag.Int("loops", 0, "override Eigenbench per-thread per-view loops")
		flows     = flag.Int("flows", 0, "override Intruder flow count")
		qs        = flag.String("qs", "", "override quota sweep, e.g. 1,2,4,8,16")
		stall     = flag.Duration("stall", 0, "override livelock stall window")
		dead      = flag.Duration("deadline", 0, "override per-run deadline")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations (A1-A5) instead of the tables")
		format    = flag.String("format", "text", "output format: text | csv | markdown")
	)
	flag.Parse()

	s, ok := harness.ScaleByName(*scale)
	if !ok {
		fail(2, "unknown scale %q (quick | default | paper)", *scale)
	}
	if *threads > 0 {
		s.Threads = *threads
	}
	if *loops > 0 {
		s.EigenLoops = *loops
	}
	if *flows > 0 {
		s.IntruderFlows = *flows
	}
	if *qs != "" {
		s.Qs = nil
		for _, part := range strings.Split(*qs, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || q < 1 {
				fail(2, "bad -qs entry %q", part)
			}
			s.Qs = append(s.Qs, q)
		}
	}
	if *stall > 0 {
		s.StallWindow = *stall
	}
	if *dead > 0 {
		s.Deadline = *dead
	}

	start := time.Now()
	var out []*harness.Table
	var err error
	switch {
	case *ablations:
		out, err = harness.AllAblations(s)
	case *table == "all":
		out, err = harness.AllTables(s)
	default:
		builder, ok := harness.ByID(*table)
		if !ok {
			fail(2, "unknown table %q (use 3..10 or III..X)", *table)
		}
		var t *harness.Table
		if t, err = builder(s); err == nil {
			out = append(out, t)
		}
	}
	for _, t := range out {
		text, ferr := t.Format(*format)
		if ferr != nil {
			fail(2, "error: %v", ferr)
		}
		fmt.Println(text)
	}
	if err != nil {
		fail(1, "error: %v", err)
	}
	fmt.Printf("total wall time: %v (threads=%d eigenLoops=%d intruderFlows=%d)\n",
		time.Since(start).Round(time.Millisecond), s.Threads, s.EigenLoops, s.IntruderFlows)
}
