package harness

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// layoutView is one view's synthetic statistics.
type layoutView struct {
	commits, aborts, successNs, abortNs int64
	delta                               float64
	quota                               int
}

// layoutRun is one synthetic experiment cell: a runtime, a livelock
// verdict and per-view stats in the order the runners report them.
type layoutRun struct {
	elapsed  time.Duration
	livelock bool
	views    []layoutView
}

var (
	layoutQs = []int{1, 2, 4, 8, 16}

	// layoutSingle covers every formatter branch: N/A δ at Q = 1, a tiny δ
	// in scientific notation, k/m/G/T counts and a livelocked cell.
	layoutSingle = []layoutRun{
		{elapsed: 63800 * time.Millisecond, views: []layoutView{
			{commits: 3_200_000, aborts: 0, successNs: 49_800_000_000_000, abortNs: 0, delta: math.NaN(), quota: 1}}},
		{elapsed: 12 * time.Second, views: []layoutView{
			{commits: 3_200_000, aborts: 7010, successNs: 5_260_000_000, abortNs: 1_000_000, delta: 0.0002, quota: 2}}},
		{elapsed: 9500 * time.Millisecond, views: []layoutView{
			{commits: 3_200_000, aborts: 7_010_000, successNs: 5_000_000_000, abortNs: 4_100_000_000, delta: 0.82, quota: 4}}},
		{elapsed: 2698 * time.Second, views: []layoutView{
			{commits: 3_200_000, aborts: 99_000_000, successNs: 6_000_000_000, abortNs: 19_200_000_000, delta: 3.21, quota: 8}}},
		{elapsed: 30 * time.Minute, livelock: true, views: []layoutView{
			{commits: 12, aborts: 999, successNs: 17, abortNs: 8, delta: 40, quota: 16}}},
	}

	// layoutMulti sweeps Q1 with a cold second view.
	layoutMulti = []layoutRun{
		{elapsed: 40 * time.Second, views: []layoutView{
			{commits: 1_600_000, aborts: 0, successNs: 20_000_000_000, delta: math.NaN(), quota: 1},
			{commits: 1_600_000, aborts: 120, successNs: 9_000_000_000, abortNs: 400_000, delta: 0.004, quota: 16}}},
		{elapsed: 21500 * time.Millisecond, views: []layoutView{
			{commits: 1_600_000, aborts: 310_000, successNs: 21_000_000_000, abortNs: 3_000_000_000, delta: 0.29, quota: 2},
			{commits: 1_600_000, aborts: 150, successNs: 9_100_000_000, abortNs: 500_000, delta: 0.0051, quota: 16}}},
		{elapsed: 25 * time.Second, views: []layoutView{
			{commits: 1_600_000, aborts: 2_900_000, successNs: 22_000_000_000, abortNs: 30_000_000_000, delta: 1.36, quota: 4},
			{commits: 1_600_000, aborts: 180, successNs: 9_200_000_000, abortNs: 600_000, delta: 0.006, quota: 16}}},
		{elapsed: 30 * time.Minute, livelock: true, views: []layoutView{
			{commits: 40, aborts: 1_000_000, quota: 8},
			{commits: 1_000_000, quota: 16}}},
		{elapsed: 30 * time.Minute, livelock: true, views: []layoutView{
			{commits: 2, aborts: 2_000_000, quota: 16},
			{commits: 1_200_000, quota: 16}}},
	}

	// layoutEigen and layoutIntr are the four program versions (single-view,
	// multi-view, multi-TM, TM) under adaptive RAC.
	layoutEigen = []layoutRun{
		{elapsed: 14 * time.Second, views: []layoutView{{aborts: 2_500_000, quota: 2}}},
		{elapsed: 9 * time.Second, views: []layoutView{{aborts: 400_000, quota: 1}, {aborts: 2100, quota: 16}}},
		{elapsed: 30 * time.Minute, livelock: true, views: []layoutView{{aborts: 9}, {aborts: 9}}},
		{elapsed: 30 * time.Minute, livelock: true, views: []layoutView{{aborts: 9}}},
	}
	layoutIntr = []layoutRun{
		{elapsed: 3100 * time.Millisecond, views: []layoutView{{aborts: 52_000, quota: 16}}},
		{elapsed: 2 * time.Second, views: []layoutView{{aborts: 3000, quota: 16}, {aborts: 4000, quota: 8}}},
		{elapsed: 2200 * time.Millisecond, views: []layoutView{{aborts: 3500}, {aborts: 4200}}},
		{elapsed: 3300 * time.Millisecond, views: []layoutView{{aborts: 61_000}}},
	}
)

// TestTableLayoutsGolden pins every table builder's layout — the
// single-view sweep (Eigenbench and Intruder), the multi-view sweep and
// the adaptive Table VI/X rows — in all three output formats against
// testdata/layouts.golden, from fixed synthetic results.
func TestTableLayoutsGolden(t *testing.T) {
	tables := []*Table{
		layoutSingleSweep("III", "single-view Eigenbench with VOTM-OrecEagerRedo", layoutQs, layoutSingle),
		layoutIntruderSweep("IV", "single-view Intruder with VOTM-OrecEagerRedo", layoutQs, layoutSingle),
		layoutMultiSweep("V", "multi-view Eigenbench with VOTM-OrecEagerRedo", layoutQs, layoutMulti),
		layoutAdaptive("VI", "performance of adaptive RAC in VOTM-OrecEagerRedo", layoutEigen, layoutIntr),
	}
	var b strings.Builder
	for _, tab := range tables {
		for _, f := range []string{"text", "csv", "markdown"} {
			out, err := tab.Format(f)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString("=== " + tab.ID + " " + f + "\n" + out)
		}
	}
	want, err := os.ReadFile("testdata/layouts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("table layouts changed; got:\n%s", got)
	}
}
