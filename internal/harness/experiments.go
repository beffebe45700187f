package harness

import (
	"strconv"

	"votm/internal/core"
	"votm/internal/eigenbench"
	"votm/internal/intruder"
	"votm/internal/progress"
)

// cyclesNote documents the rdtsc→nanoseconds substitution on every table.
const cyclesNote = "CPU-cycle columns are monotonic-nanosecond totals (δ is a ratio, so the unit cancels); 'livelock' = watchdog verdict"

// Sweep holds a fixed-quota sweep: one result per Q.
type Sweep struct {
	Qs      []int
	Results []progress.Result
}

// AdaptiveSet holds the four program versions under adaptive RAC for both
// applications (the shape of Tables VI and X).
type AdaptiveSet struct {
	Modes []progress.Mode
	Eigen []progress.Result
	Intr  []intruder.Result
}

func (s Scale) cfg(engine core.EngineKind, mode progress.Mode, q1, q2 int) progress.RunConfig {
	return progress.RunConfig{
		Engine:      engine,
		Mode:        mode,
		Quotas:      [2]int{q1, q2},
		Yield:       s.Yield,
		StallWindow: s.StallWindow,
		Deadline:    s.Deadline,
	}
}

// eigenRun and intruderRun run one cell of each application at scale s.
func eigenRun(s Scale, cfg progress.RunConfig) (progress.Result, error) {
	return eigenbench.Run(cfg, s.eigenParams())
}

func intruderRun(s Scale, cfg progress.RunConfig) (intruder.Result, error) {
	p := s.intruderParams()
	return intruder.Run(cfg, p, intruder.Generate(p))
}

func intruderCell(s Scale, cfg progress.RunConfig) (progress.Result, error) {
	res, err := intruderRun(s, cfg)
	return res.Result, err
}

// sweepTable runs app at each fixed Q and renders the sweep in the paper's
// layout. The single-view tables (III, IV, VII, VIII) sweep Q; the
// multi-view tables (V, IX) sweep Q1 with Q2 fixed at N.
func sweepTable(s Scale, id, title string, app func(Scale, progress.RunConfig) (progress.Result, error),
	engine core.EngineKind, mode progress.Mode) (*Table, Sweep, error) {

	sw := Sweep{Qs: s.clippedQs()}
	for _, q := range sw.Qs {
		q2 := q
		if mode.MultipleViews() {
			q2 = s.Threads
		}
		res, err := app(s, s.cfg(engine, mode, q, q2))
		if err != nil {
			return nil, sw, err
		}
		sw.Results = append(sw.Results, res)
	}
	return sweepLayout(id, title, sw, mode.MultipleViews()), sw, nil
}

// sweepLayout renders a sweep with metrics as rows and Q values as
// columns: the one view's rows, or both views' rows suffixed 1 and 2.
func sweepLayout(id, title string, sw Sweep, multi bool) *Table {
	t := &Table{ID: id, Title: title, Note: cyclesNote}
	q, suffixes := "Q", []string{""}
	if multi {
		t.Note += "; Q2 fixed at N"
		q, suffixes = "Q1", []string{"1", "2"}
	}
	t.Header = append([]string{q}, intsToStrings(sw.Qs)...)
	row := func(name string, f func(progress.Result) string) {
		r := []string{name}
		for _, res := range sw.Results {
			r = append(r, cell(res, f))
		}
		t.Rows = append(t.Rows, r)
	}
	row("Runtime(s)", seconds)
	for i, sfx := range suffixes {
		view := func(f func(progress.ViewStats) string) func(progress.Result) string {
			return func(r progress.Result) string { return f(r.Views[i]) }
		}
		row("#abort"+sfx, view(func(v progress.ViewStats) string { return FormatCount(v.Aborts) }))
		row("#tx"+sfx, view(func(v progress.ViewStats) string { return FormatCount(v.Commits) }))
		row("t_aborted_tx"+sfx, view(func(v progress.ViewStats) string { return FormatNs(v.AbortNs) }))
		row("t_successful_tx"+sfx, view(func(v progress.ViewStats) string { return FormatNs(v.SuccessNs) }))
		row("delta(Q"+sfx+")", view(func(v progress.ViewStats) string { return FormatDelta(v.Delta) }))
	}
	return t
}

// cell renders f(res), or "livelock" for a livelocked run.
func cell(res progress.Result, f func(progress.Result) string) string {
	if res.Livelock {
		return "livelock"
	}
	return f(res)
}

func seconds(r progress.Result) string { return FormatSeconds(r.Elapsed) }

func aborts(r progress.Result) string { return FormatCount(r.TotalAborts()) }

func quota(view int) func(progress.Result) string {
	return func(r progress.Result) string { return strconv.Itoa(r.Views[view].Quota) }
}

// TableIII: single-view Eigenbench with VOTM-OrecEagerRedo, fixed Q sweep.
func TableIII(s Scale) (*Table, Sweep, error) {
	return sweepTable(s, "III", "single-view Eigenbench with VOTM-OrecEagerRedo", eigenRun, core.OrecEagerRedo, progress.SingleView)
}

// TableIV: single-view Intruder with VOTM-OrecEagerRedo, fixed Q sweep.
func TableIV(s Scale) (*Table, Sweep, error) {
	return sweepTable(s, "IV", "single-view Intruder with VOTM-OrecEagerRedo", intruderCell, core.OrecEagerRedo, progress.SingleView)
}

// TableV: multi-view Eigenbench with VOTM-OrecEagerRedo (Q1 sweep, Q2=N).
func TableV(s Scale) (*Table, Sweep, error) {
	return sweepTable(s, "V", "multi-view Eigenbench with VOTM-OrecEagerRedo", eigenRun, core.OrecEagerRedo, progress.MultiView)
}

// TableVII: single-view Eigenbench with VOTM-NOrec, fixed Q sweep.
func TableVII(s Scale) (*Table, Sweep, error) {
	return sweepTable(s, "VII", "single-view Eigenbench with VOTM-NOrec", eigenRun, core.NOrec, progress.SingleView)
}

// TableVIII: single-view Intruder with VOTM-NOrec, fixed Q sweep.
func TableVIII(s Scale) (*Table, Sweep, error) {
	return sweepTable(s, "VIII", "single-view Intruder with VOTM-NOrec", intruderCell, core.NOrec, progress.SingleView)
}

// TableIX: multi-view Eigenbench with VOTM-NOrec (Q1 sweep, Q2=N).
func TableIX(s Scale) (*Table, Sweep, error) {
	return sweepTable(s, "IX", "multi-view Eigenbench with VOTM-NOrec", eigenRun, core.NOrec, progress.MultiView)
}

// RunAdaptiveSet runs both applications in all four versions with adaptive
// RAC (Tables VI and X).
func RunAdaptiveSet(s Scale, engine core.EngineKind) (AdaptiveSet, error) {
	set := AdaptiveSet{Modes: []progress.Mode{progress.SingleView, progress.MultiView, progress.MultiTM, progress.PlainTM}}
	for _, m := range set.Modes {
		res, err := eigenRun(s, s.cfg(engine, m, 0, 0))
		if err != nil {
			return set, err
		}
		set.Eigen = append(set.Eigen, res)
	}
	for _, m := range set.Modes {
		res, err := intruderRun(s, s.cfg(engine, m, 0, 0))
		if err != nil {
			return set, err
		}
		set.Intr = append(set.Intr, res)
	}
	return set, nil
}

func adaptiveTable(id, title string, set AdaptiveSet) *Table {
	t := &Table{ID: id, Title: title, Note: cyclesNote + "; Q = settled adaptive quota"}
	t.Header = []string{"Application",
		"sv time(s)", "sv Q", "sv #abort",
		"mv time(s)", "mv Q1", "mv Q2", "mv #abort",
		"mtm time(s)", "mtm #abort",
		"tm time(s)", "tm #abort"}
	intr := make([]progress.Result, len(set.Intr))
	for i, r := range set.Intr {
		intr[i] = r.Result
	}
	t.Rows = [][]string{adaptiveRow("Eigenbench", set.Eigen), adaptiveRow("Intruder", intr)}
	return t
}

// adaptiveRow renders one application's four versions (single-view,
// multi-view, multi-TM, TM) as a Table VI/X row.
func adaptiveRow(app string, rs []progress.Result) []string {
	row := []string{app}
	add := func(res progress.Result, fs ...func(progress.Result) string) {
		for _, f := range fs {
			row = append(row, cell(res, f))
		}
	}
	add(rs[0], seconds, quota(0), aborts)
	add(rs[1], seconds, quota(0), quota(1), aborts)
	add(rs[2], seconds, aborts)
	add(rs[3], seconds, aborts)
	return row
}

// TableVI: adaptive RAC with VOTM-OrecEagerRedo across all four versions.
func TableVI(s Scale) (*Table, AdaptiveSet, error) {
	set, err := RunAdaptiveSet(s, core.OrecEagerRedo)
	if err != nil {
		return nil, set, err
	}
	return adaptiveTable("VI", "performance of adaptive RAC in VOTM-OrecEagerRedo", set), set, nil
}

// TableX: adaptive RAC with VOTM-NOrec across all four versions.
func TableX(s Scale) (*Table, AdaptiveSet, error) {
	set, err := RunAdaptiveSet(s, core.NOrec)
	if err != nil {
		return nil, set, err
	}
	return adaptiveTable("X", "performance of adaptive RAC in VOTM-NOrec", set), set, nil
}

// tables is the evaluation in paper order, Table III first.
var tables = []struct {
	id    string
	build func(Scale) (*Table, error)
}{
	{"III", func(s Scale) (*Table, error) { t, _, err := TableIII(s); return t, err }},
	{"IV", func(s Scale) (*Table, error) { t, _, err := TableIV(s); return t, err }},
	{"V", func(s Scale) (*Table, error) { t, _, err := TableV(s); return t, err }},
	{"VI", func(s Scale) (*Table, error) { t, _, err := TableVI(s); return t, err }},
	{"VII", func(s Scale) (*Table, error) { t, _, err := TableVII(s); return t, err }},
	{"VIII", func(s Scale) (*Table, error) { t, _, err := TableVIII(s); return t, err }},
	{"IX", func(s Scale) (*Table, error) { t, _, err := TableIX(s); return t, err }},
	{"X", func(s Scale) (*Table, error) { t, _, err := TableX(s); return t, err }},
}

// AllTables regenerates every evaluation table in paper order.
func AllTables(s Scale) ([]*Table, error) {
	var out []*Table
	for _, e := range tables {
		t, err := e.build(s)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID returns the builder for one table ("3"/"III" style accepted).
func ByID(id string) (func(Scale) (*Table, error), bool) {
	for i, e := range tables {
		if id == e.id || id == strconv.Itoa(i+3) {
			return e.build, true
		}
	}
	return nil, false
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.Itoa(x)
	}
	return out
}
