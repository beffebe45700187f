// Command benchreport converts `go test -bench` text output into a stable
// JSON baseline file, and back into the benchmark text format that benchstat
// consumes. It exists so the repo can commit machine-readable performance
// baselines (BENCH_*.json) without also committing raw benchmark logs, while
// CI can still reconstruct benchstat-compatible text from them:
//
//	go test -run='^$' -bench=. -benchmem ./internal/stm/... |
//	    benchreport -o BENCH_engines.json      # capture a baseline
//	benchreport -totext BENCH_engines.json     # replay it for benchstat
//	benchreport pair HEAD~1 kv-point 5         # alternating end-to-end pairs
//
// In -totext mode every benchmark name is qualified with its package path
// (slashes folded to underscores) so identically-named benchmarks from
// different packages — the three engines all export BenchmarkReadOnlyTx —
// stay distinct rows in a benchstat table.
//
// The pair subcommand (pair.go) judges a change the way BENCHMARK.json does:
// alternating `bash bench/run.sh` launches of a parent ref and of the working
// tree, summarised per end-to-end metric by both medians, their ratio, the
// pairs the change won and the parent's interquartile range.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one `go test -bench` result line.
type Benchmark struct {
	// Pkg is the Go package the benchmark ran in (from the `pkg:` header).
	Pkg string `json:"pkg"`
	// Name is the full benchmark name including the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value (ns/op, B/op, allocs/op, custom metrics).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the JSON document benchreport reads and writes.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pair" {
		if err := runPair(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}
	out := flag.String("o", "", "write JSON to this file (default stdout)")
	totext := flag.String("totext", "", "read JSON from this file and emit benchmark text for benchstat")
	flag.Parse()

	if *totext != "" {
		if err := runToText(*totext, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmark lines in input")
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// parse consumes `go test -bench` output. Header lines (goos/goarch/cpu/pkg)
// set context; `Benchmark...` lines become results; everything else (PASS,
// ok, test logs) is ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b.Pkg = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses `BenchmarkName-8  1000  123 ns/op  0 B/op ...`.
func parseBenchLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

func runToText(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return writeText(&rep, w)
}

// writeText renders a Report as benchmark text. Package paths are folded
// into the benchmark name (see the package comment) so benchstat keeps
// same-named benchmarks from different packages apart.
func writeText(rep *Report, w io.Writer) error {
	if rep.Goos != "" {
		fmt.Fprintf(w, "goos: %s\n", rep.Goos)
	}
	if rep.Goarch != "" {
		fmt.Fprintf(w, "goarch: %s\n", rep.Goarch)
	}
	if rep.CPU != "" {
		fmt.Fprintf(w, "cpu: %s\n", rep.CPU)
	}
	for _, b := range rep.Benchmarks {
		fmt.Fprintf(w, "%s %d", qualifiedName(b), b.Iterations)
		units := make([]string, 0, len(b.Metrics))
		for u := range b.Metrics {
			units = append(units, u)
		}
		// ns/op first to match go test's ordering, then the rest sorted.
		sort.Slice(units, func(i, j int) bool {
			if (units[i] == "ns/op") != (units[j] == "ns/op") {
				return units[i] == "ns/op"
			}
			return units[i] < units[j]
		})
		for _, u := range units {
			fmt.Fprintf(w, " %s %s", formatValue(b.Metrics[u]), u)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// qualifiedName folds the package path into the benchmark name:
// pkg votm/internal/stm/norec + BenchmarkReadOnlyTx-8 →
// Benchmarkvotm_internal_stm_norec/ReadOnlyTx-8.
func qualifiedName(b Benchmark) string {
	if b.Pkg == "" {
		return b.Name
	}
	rest := strings.TrimPrefix(b.Name, "Benchmark")
	return "Benchmark" + strings.ReplaceAll(b.Pkg, "/", "_") + "/" + rest
}

// formatValue prints benchmark values the way go test does: integers stay
// integral, fractional values keep their precision.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
