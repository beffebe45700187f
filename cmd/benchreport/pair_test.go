package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

var specs = []metricSpec{
	{Name: "setup_s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Better: "lower", Bound: 0.15},
}

// canned builds one launch's output: a fact line, a metric line and the
// result line run.sh prints last.
func canned(t *testing.T, setup, tput, rss float64, failed uint64) runResult {
	t.Helper()
	out := fmt.Sprintf(`seed 1, nproc 2
throughput_ops_s %14.4f ops/s
ops attempted 100, failed %d, correct %v
{"correct":%v,"attempted":100,"failed":%d,"metrics":{"peak_rss_mb":{"value":%g,"unit":"MB"},"setup_s":{"value":%g,"unit":"s"},"throughput_ops_s":{"value":%g,"unit":"ops/s"}}}
`, tput, failed, failed == 0, failed == 0, failed, rss, setup, tput)
	r, err := lastResult([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLastResultRejectsOutputWithoutResultLine(t *testing.T) {
	if _, err := lastResult([]byte("go: build failed\n")); err == nil {
		t.Fatal("accepted output without a result line")
	}
}

func TestPairSummary(t *testing.T) {
	var pairs []pairRun
	for i, v := range []struct{ ps, pt, pr, cs, ct, cr float64 }{
		{4.0, 100, 30, 4.2, 110, 31},
		{4.1, 104, 30, 4.0, 98, 30},
		{3.9, 96, 31, 4.4, 120, 40},
		{4.0, 102, 30, 4.1, 108, 30},
		{4.2, 98, 30, 4.3, 112, 39},
	} {
		var failed uint64
		if i == 2 {
			failed = 7
		}
		pairs = append(pairs, pairRun{parent: canned(t, v.ps, v.pt, v.pr, 0), change: canned(t, v.cs, v.ct, v.cr, failed)})
	}
	rows := summarize(specs, pairs)
	want := []struct {
		parentMed, changeMed, iqr float64
		won                       int
		worse                     bool
	}{
		{4.0, 4.2, 0.1, 1, false}, // setup_s: lower, so only pair 2 is won
		{100, 110, 4, 4, false},   // throughput: the change is ahead in 4 of 5
		{30, 31, 0, 0, false},     // peak RSS: a tie is not a win; +3 % is inside 15 %
	}
	for i, r := range rows {
		w := want[i]
		if math.Abs(r.parentMed-w.parentMed) > 1e-9 || math.Abs(r.changeMed-w.changeMed) > 1e-9 ||
			math.Abs(r.parentIQR-w.iqr) > 1e-9 || r.won != w.won || r.worse() != w.worse {
			t.Errorf("%s: got medians %g/%g IQR %g won %d worse %v, want %+v",
				r.spec.Name, r.parentMed, r.changeMed, r.parentIQR, r.won, r.worse(), w)
		}
	}

	var sb strings.Builder
	writeSummary(&sb, "HEAD~1", "kv-point", specs, pairs)
	out := sb.String()
	for _, s := range []string{
		"kv-point: 5 pairs, parent HEAD~1",
		"pair 3: setup_s 3.9 → 4.4",
		"; failed 0 → 7",
		"failed ops: parent 0 (0 incorrect runs), change 7 (1 incorrect runs)",
		" 4/5 ",
	} {
		if !strings.Contains(out, s) {
			t.Errorf("summary lacks %q:\n%s", s, out)
		}
	}
}

func TestWorseBeyondBound(t *testing.T) {
	for _, tc := range []struct {
		spec        metricSpec
		parent, chg float64
		worse       bool
	}{
		{specs[1], 100, 76, false},
		{specs[1], 100, 74, true},
		{specs[0], 4, 4.9, false},
		{specs[0], 4, 5.1, true},
		{specs[2], 30, 34, false},
		{specs[2], 30, 35, true},
	} {
		r := summaryRow{spec: tc.spec, parentMed: tc.parent, changeMed: tc.chg}
		if r.worse() != tc.worse {
			t.Errorf("%s %g → %g: worse %v, want %v", tc.spec.Name, tc.parent, tc.chg, r.worse(), tc.worse)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1, 2 = %g, want 1.5", got)
	}
}
