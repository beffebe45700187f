package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runCalibrate runs the workload k times as fresh child processes, one seed
// each, and prints per metric the median, the quartiles and the relative
// spread (q3 − q1) / median — the figure the driver holds against a
// metric's bound. A child that fails fails the calibration.
func runCalibrate(o opts, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	defs := endToEnd
	if o.trace {
		trace, defs = "1", perLayer
	}
	values := make(map[string][]float64)
	for i := 0; i < k; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self, "-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			os.Stdout.Write(out)
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		var res resultLine
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("run %d (seed %d): last line is not the result object: %w", i, seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("run %d (seed %d): correct=%v failed=%d", i, seed, res.Correct, res.Failed)
		}
		fmt.Printf("run %d seed %d attempted %d:", i, seed, res.Attempted)
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Printf("  %s %.4f", d.name, m.Value)
			}
		}
		fmt.Println()
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Printf("\n%s, %d runs, seeds %d..%d, %d s timed\n", o.workload, k, o.seed, o.seed+int64(k)-1, o.seconds)
	fmt.Printf("%-30s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, d := range defs {
		q1, q2, q3 := quartiles(values[d.name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-30s %-6s %14.4f %14.4f %14.4f %8.4f\n", d.name, d.unit, q1, q2, q3, spread)
	}
	return nil
}
