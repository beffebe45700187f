package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric names BENCHMARK.json lists, in the
// order they are printed. bench_test.go checks the two stay in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"wire.encode_req_ns", "ns"},
	{"wire.decode_req_ns", "ns"},
	{"wire.encode_resp_ns", "ns"},
	{"wire.decode_resp_ns", "ns"},
	{"wire.bytes_per_op", "B"},
	{"client.throughput_raw_ops_s", "ops/s"},
	{"client.lat_p50_us", "us"},
	{"client.lat_p99_us", "us"},
	{"client.lat_max_us", "us"},
	{"client.sync_rtt_p50_us", "us"},
	{"server.new_s", "s"},
	{"server.shutdown_s", "s"},
	{"server.mean_group_size", "count"},
	{"server.groups_per_s", "1/s"},
	{"server.effective_batch", "count"},
	{"server.queue_high_water", "count"},
	{"server.busy_share", "ratio"},
	{"server.xshard_groups_per_op", "ratio"},
	{"server.self_us_per_op", "us"},
	{"rac.enter_exit_ns", "ns"},
	{"rac.quota_settled", "count"},
	{"rac.quota_moves", "count"},
	{"rac.delta_q_hot", "ratio"},
	{"rac.delta_q_cold", "ratio"},
	{"stm.commit_ratio", "ratio"},
	{"stm.tx_success_us", "us"},
	{"stm.tx_abort_us", "us"},
	{"stm.escalations", "count"},
	{"view.atomic_empty_ns_tm", "ns"},
	{"view.atomic_empty_ns_lock", "ns"},
	{"index.get_ns", "ns"},
	{"index.put_ns", "ns"},
	{"index.scan_ns_per_entry", "ns"},
	{"index.scan_amplification", "ratio"},
	{"memheap.alloc_free_ns", "ns"},
	{"wal.append_ns_per_rec", "ns"},
	{"wal.sync_us", "us"},
	{"wal.model_flush_us", "us"},
	{"wal.fsyncs_per_op", "ratio"},
	{"wal.appends_per_op", "ratio"},
	{"wal.fsync_share", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.prepares_per_op", "ratio"},
	{"wal.prepare_aborts", "count"},
	{"wal.recover_s", "s"},
	{"wal.replayed_records", "count"},
	{"wal.real_fsync_us", "us"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.gomaxprocs", "count"},
	{"proc.mem_ref_ns", "ns"},
	{"trace.overhead_share", "ratio"},
}

// report collects what one run prints: free-form facts about the box and the
// run, metric values by name, and the audit verdict.
type report struct {
	facts     []string
	values    map[string]float64
	attempted uint64
	failed    uint64
	failures  []string // audit failures; any entry makes the run incorrect
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) fact(format string, args ...any) {
	r.facts = append(r.facts, fmt.Sprintf(format, args...))
}

// set records a metric; NaN and ±Inf (a ratio with an empty base, δ(Q) at
// Q ≤ 1) are stored as 0, which JSON can carry.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.failures) == 0 && r.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the facts, every metric that was measured (by name, with its
// unit), and as the last line the driver's JSON object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *report) print(w io.Writer, traced bool) {
	for _, f := range r.facts {
		fmt.Fprintln(w, f)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(w, "%-30s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "AUDIT FAILURE:", f)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d, correct %v\n", r.attempted, r.failed, r.correct())

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{r.correct(), max(r.attempted, 1), r.failed, make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = jsonMetric{r.values[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	fmt.Fprintln(w, strings.TrimSpace(string(b)))
}
