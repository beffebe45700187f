package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // largest tolerated relative loss
}

// runResult is the JSON object a `bench/run.sh` launch prints as its last line.
type runResult struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func (r runResult) value(name string) float64 { return r.Metrics[name].Value }

// pairRun is one parent launch and one change launch on the same seed.
type pairRun struct{ parent, change runResult }

// lastResult parses the result object from a launch's standard output: its
// last non-empty line.
func lastResult(out []byte) (runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("no result line: %v", err)
	}
	return r, nil
}

// summaryRow compares one metric across the pairs.
type summaryRow struct {
	spec                 metricSpec
	parentMed, changeMed float64
	won                  int     // pairs in which the change did better
	parentIQR            float64 // distance between the parent's quartiles
}

// ratio is the change's median over the parent's.
func (r summaryRow) ratio() float64 { return r.changeMed / r.parentMed }

// worse reports whether the change's median is worse than the parent's by
// more than the metric's bound.
func (r summaryRow) worse() bool {
	if r.spec.Better == "lower" {
		return r.changeMed > r.parentMed*(1+r.spec.Bound)
	}
	return r.changeMed < r.parentMed*(1-r.spec.Bound)
}

func summarize(specs []metricSpec, pairs []pairRun) []summaryRow {
	rows := make([]summaryRow, 0, len(specs))
	for _, m := range specs {
		var par, chg []float64
		won := 0
		for _, p := range pairs {
			pv, cv := p.parent.value(m.Name), p.change.value(m.Name)
			par, chg = append(par, pv), append(chg, cv)
			if (m.Better == "lower" && cv < pv) || (m.Better != "lower" && cv > pv) {
				won++
			}
		}
		rows = append(rows, summaryRow{spec: m, parentMed: quantile(par, 0.5), changeMed: quantile(chg, 0.5),
			won: won, parentIQR: quantile(par, 0.75) - quantile(par, 0.25)})
	}
	return rows
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// writeSummary prints every run, then one row per end-to-end metric and the
// failed operations of each side.
func writeSummary(w io.Writer, ref, workload string, specs []metricSpec, pairs []pairRun) {
	fmt.Fprintf(w, "%s: %d pairs, parent %s\n", workload, len(pairs), ref)
	for i, p := range pairs {
		fmt.Fprintf(w, "  pair %d:", i+1)
		for _, m := range specs {
			fmt.Fprintf(w, " %s %.5g → %.5g", m.Name, p.parent.value(m.Name), p.change.value(m.Name))
		}
		fmt.Fprintf(w, "; failed %d → %d\n", p.parent.Failed, p.change.Failed)
	}
	fmt.Fprintf(w, "%-18s %14s %14s %8s %5s %12s %6s %s\n", "metric", "parent-median", "change-median", "ratio", "won", "parent-IQR", "bound", "verdict")
	for _, r := range summarize(specs, pairs) {
		verdict := "within bound"
		if r.worse() {
			verdict = "WORSE beyond bound"
		}
		fmt.Fprintf(w, "%-18s %14.4g %14.4g %8.4f %2d/%-2d %12.4g %6.2f %s\n",
			r.spec.Name, r.parentMed, r.changeMed, r.ratio(), r.won, len(pairs), r.parentIQR, r.spec.Bound, verdict)
	}
	var pf, cf, pbad, cbad uint64
	for _, p := range pairs {
		pf, cf = pf+p.parent.Failed, cf+p.change.Failed
		if !p.parent.Correct {
			pbad++
		}
		if !p.change.Correct {
			cbad++
		}
	}
	fmt.Fprintf(w, "failed ops: parent %d (%d incorrect runs), change %d (%d incorrect runs)\n", pf, pbad, cf, cbad)
}

// runPair is `benchreport pair <git-ref> <workload> <n>`: n alternating
// launches of `bash bench/run.sh` on the committed files of git-ref (extracted
// into a temporary directory) and on the working tree the command runs in, the
// parent first on odd pairs. Pair i runs seed i on both sides, for the run
// length BENCHMARK.json fixes.
func runPair(args []string, w io.Writer) error {
	if len(args) != 3 {
		return errors.New("usage: benchreport pair <git-ref> <workload> <n>")
	}
	ref, workload := args[0], args[1]
	n, err := strconv.Atoi(args[2])
	if err != nil || n < 1 {
		return fmt.Errorf("pair count %q: want a positive integer", args[2])
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse: %v", err)
	}
	change := strings.TrimSpace(string(top))
	seconds, specs, err := readBenchmark(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	parent, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parent)
	extract := exec.Command("sh", "-c", `git -C "$1" archive "$2" | tar -x -C "$3"`, "sh", change, ref, parent)
	if out, err := extract.CombinedOutput(); err != nil {
		return fmt.Errorf("extract %s: %v: %s", ref, err, out)
	}

	var pairs []pairRun
	for i := 1; i <= n; i++ {
		var p pairRun
		order := []struct {
			dir string
			res *runResult
		}{{parent, &p.parent}, {change, &p.change}}
		if i%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		for _, side := range order {
			if *side.res, err = launch(side.dir, workload, i, seconds); err != nil {
				return err
			}
		}
		pairs = append(pairs, p)
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i, n)
	}
	writeSummary(w, ref, workload, specs, pairs)
	return nil
}

// launch runs one untraced benchmark in dir. A run whose audit failed exits 1
// but still prints its result line, which counts its failed operations.
func launch(dir, workload string, seed, seconds int) (runResult, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	r, err := lastResult(out.Bytes())
	if err != nil {
		return r, fmt.Errorf("%s: %s seed %d: %v (run: %v)", dir, workload, seed, err, runErr)
	}
	return r, nil
}

// readBenchmark reads the run length and the end-to-end metrics
// BENCHMARK.json declares.
func readBenchmark(path string) (int, []metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	var b struct {
		RunSeconds int          `json:"run_seconds"`
		EndToEnd   []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return 0, nil, fmt.Errorf("%s: %v", path, err)
	}
	return b.RunSeconds, b.EndToEnd, nil
}
