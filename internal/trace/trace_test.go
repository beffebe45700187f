package trace

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func quota(subject, from, to int) Decision {
	return Decision{Loop: Quota, Subject: subject, From: from, To: to, Delta: 1.5, Reason: "δ > high"}
}

func TestRecordAndEvents(t *testing.T) {
	l := NewLog()
	l.Add(quota(1, 16, 8))
	l.Add(quota(1, 8, 4))
	l.Add(quota(2, 16, 16))
	ev := l.Entries()
	if len(ev) != 3 {
		t.Fatalf("Entries = %d", len(ev))
	}
	if ev[0].From != 16 || ev[0].To != 8 || ev[0].Subject != 1 || ev[0].Delta != 1.5 {
		t.Errorf("event 0 = %+v", ev[0])
	}
	for _, d := range ev {
		if d.String() == "" {
			t.Error("empty decision string")
		}
	}
	if got := ev[2].String(); got != "quota 2: 16 -> 16 (δ > high)" {
		t.Errorf("decision string = %q", got)
	}
	// Entries() must be a copy.
	ev[0].Subject = 99
	if l.Entries()[0].Subject != 1 {
		t.Error("Entries leaked internal slice")
	}
	if l.Count(Quota) != 3 {
		t.Errorf("count = %d", l.Count(Quota))
	}
}

// TestLimitDropsOldest: past Capacity the oldest decisions go first, the
// rest stay in order, and the count stays exact.
func TestLimitDropsOldest(t *testing.T) {
	l := NewLog()
	const n = Capacity + 2
	for i := 0; i < n; i++ {
		l.Add(quota(1, i, i+1))
	}
	ev := l.Entries()
	if len(ev) != Capacity {
		t.Fatalf("kept %d, want %d", len(ev), Capacity)
	}
	if ev[0].From != 2 {
		t.Errorf("oldest kept From = %d, want 2", ev[0].From)
	}
	for k := 1; k < Capacity; k++ {
		if ev[k].From != ev[k-1].To {
			t.Fatalf("entry %d out of order: %+v after %+v", k, ev[k], ev[k-1])
		}
	}
	if last := ev[Capacity-1]; last.To != n {
		t.Errorf("newest kept = %+v", last)
	}
	if l.Count(Quota) != n {
		t.Errorf("count = %d, want %d", l.Count(Quota), n)
	}
}

func TestTimeline(t *testing.T) {
	l := NewLog()
	if got := l.Timeline(1); got != "(no quota changes)" {
		t.Errorf("empty timeline = %q", got)
	}
	l.Add(quota(1, 16, 8))
	l.Add(quota(2, 16, 4)) // other view: excluded
	l.Add(quota(1, 8, 4))
	tl := l.Timeline(1)
	if !strings.HasPrefix(tl, "16 ") || !strings.Contains(tl, "-> 8") || !strings.Contains(tl, "-> 4") {
		t.Errorf("timeline = %q", tl)
	}
	if strings.Count(tl, "->") != 2 {
		t.Errorf("timeline has wrong arrow count: %q", tl)
	}
}

// TestPerView: a view's timeline shows its own quota moves only, not other
// views'.
func TestPerView(t *testing.T) {
	l := NewLog()
	l.Add(quota(1, 16, 8))
	l.Add(quota(2, 16, 4))
	l.Add(quota(1, 8, 16))
	if tl := l.Timeline(1); strings.Count(tl, "->") != 2 || !strings.HasSuffix(tl, "-> 16") {
		t.Errorf("view 1 timeline = %q", tl)
	}
	if tl := l.Timeline(2); strings.Count(tl, "->") != 1 || !strings.HasSuffix(tl, "-> 4") {
		t.Errorf("view 2 timeline = %q", tl)
	}
}

func TestZeroValueRecorder(t *testing.T) {
	var l Log
	d := l.Add(quota(1, 2, 1))
	if len(l.Entries()) != 1 || d.At != 0 {
		t.Errorf("zero-value log unusable: %d entries, first at %v", len(l.Entries()), d.At)
	}
}

// TestWriteCSV: a view's series holds its own quota moves only, not other
// views', oldest first, with NaN for a move that acted on no window.
func TestWriteCSV(t *testing.T) {
	l := NewLog()
	l.Add(quota(1, 16, 8))
	l.Add(quota(2, 16, 4))
	l.Add(Decision{Loop: Quota, Subject: 1, From: 8, To: 2, Delta: math.NaN(), Reason: "set"})
	l.Add(quota(1, 2, 1))
	var b strings.Builder
	if err := l.WriteCSV(&b, 1); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(rows) != 4 || rows[0] != "at_ms,from,to,delta,rule" {
		t.Fatalf("view 1 CSV = %q; want the header and 3 rows", b.String())
	}
	want := []string{",16,8,1.500000,δ > high", ",8,2,NaN,set", ",2,1,1.500000,δ > high"}
	for i, w := range want {
		at, rest, _ := strings.Cut(rows[i+1], ",")
		if ","+rest != w {
			t.Errorf("row %d = %q; want …%q", i+1, rows[i+1], w)
		}
		if _, err := strconv.ParseFloat(at, 64); err != nil {
			t.Errorf("row %d at_ms %q: %v", i+1, at, err)
		}
	}
	b.Reset()
	if err := l.WriteCSV(&b, 2); err != nil || strings.Count(b.String(), "\n") != 2 ||
		!strings.HasSuffix(b.String(), ",16,4,1.500000,δ > high\n") {
		t.Errorf("view 2 CSV = %q, %v; want the header and its one move", b.String(), err)
	}
}
