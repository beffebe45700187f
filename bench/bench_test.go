package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var contract benchmarkJSON

// TestMain loads the contract, then moves to a scratch directory: the
// benchmark writes .bench_build/ relative to where it runs.
func TestMain(m *testing.M) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &contract)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "BENCHMARK.json:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp("", "votm-bench-test-")
	if err == nil {
		err = os.Chdir(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// bounds pins the regression bounds the calibration in bench/README.md
// supports; changing one means recalibrating and saying why there.
var bounds = map[string]float64{"setup_s": 0.25, "throughput_ops_s": 0.25, "peak_rss_mb": 0.15}

// TestContractMatchesTables keeps BENCHMARK.json and the metric tables the
// program prints from in step: same names, same units, same order.
func TestContractMatchesTables(t *testing.T) {
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	if len(contract.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(contract.EndToEnd), len(endToEnd))
	}
	for i, m := range contract.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound != bounds[m.Name] {
			t.Errorf("%s: bound %v, want %v (bench/README.md, Calibration)", m.Name, m.Bound, bounds[m.Name])
		}
	}
	if len(contract.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(contract.PerLayer), len(perLayer))
	}
	for i, m := range contract.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// smoke is the committed cell shrunk to seconds: 0.4 % of the warm-up, a
// one-second timed phase — audits on.
func smoke(workload string) opts {
	return opts{workload: workload, seed: 1, seconds: 1, warmScale: 0.004}
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			if w == "kv-durable-atomic" && testing.Short() {
				t.Skip("the durable workload's Shutdown and reopen fsync for real")
			}
			rep, err := run(smoke(w))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, audit failures %v", rep.attempted, rep.failed, rep.failures)
			}
			for _, m := range endToEnd {
				if v, ok := rep.values[m.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v (present %v), want > 0", m.name, v, ok)
				}
			}
		})
	}
}

// TestTracedRun checks that a traced run files every per-layer metric and
// writes a span file whose lines parse and whose parents exist.
func TestTracedRun(t *testing.T) {
	for _, w := range []string{"kv-scan-writers", "lib-hotcold"} {
		t.Run(w, func(t *testing.T) {
			o := smoke(w)
			o.trace, o.seconds = true, 3
			o.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
			rep, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("audit failures %v, failed %d", rep.failures, rep.failed)
			}
			if w != "lib-hotcold" {
				for _, m := range perLayer {
					if _, ok := rep.values[m.name]; !ok {
						switch m.name {
						case "wal.model_flush_us", "wal.bytes_per_user_byte", "wal.recover_s", "wal.replayed_records":
							// measured on the durable workload only
						default:
							t.Errorf("per-layer metric %s not measured", m.name)
						}
					}
				}
			}
			if _, ok := rep.values["trace.overhead_share"]; !ok {
				t.Error("trace.overhead_share not measured")
			}

			f, err := os.Open(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			seen := map[int]bool{0: true}
			var requests int
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s struct {
					Span, Trace, Parent int
					Name                string
					Start               int64 `json:"start_ns"`
					End                 int64 `json:"end_ns"`
				}
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if !seen[s.Parent] {
					t.Fatalf("span %d (%s) names parent %d before it appears", s.Span, s.Name, s.Parent)
				}
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", s.Span, s.Name)
				}
				seen[s.Span] = true
				if s.Trace != 0 {
					requests++
				}
			}
			if requests == 0 {
				t.Error("no request spans in the trace file")
			}
		})
	}
}

// TestQuartiles pins quartiles to what Python's statistics.quantiles(xs,
// n=4) returns.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v * 10)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1_000_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1 %%", q, got, want)
		}
	}
	if h.max != 1_000_000 {
		t.Errorf("max = %d", h.max)
	}
}

func TestValueRoundTrip(t *testing.T) {
	var v [valueLen]byte
	fillValue(v[:], 4095, 77)
	if k, ver, ok := parseValue(v[:]); !ok || k != 4095 || ver != 77 {
		t.Fatalf("parseValue = %d, %d, %v", k, ver, ok)
	}
	v[40] ^= 1
	if _, _, ok := parseValue(v[:]); ok {
		t.Fatal("parseValue accepted a corrupted value")
	}
}
