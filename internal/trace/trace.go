// Package trace records why the control loops acted. The paper's analysis
// is about *when* admission control reacts ("RAC will promptly drive Q
// down"), so every runtime keeps a Log of its quota moves; the contention example prints a quota timeline from it, and
// votm-bench writes each view's quota moves as a CSV series.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Loop names the control loop that made a decision.
type Loop uint8

const (
	// Quota: RAC moved a view's admission quota (Observation 1, Eq. 5).
	Quota Loop = iota
	numLoops
)

func (l Loop) String() string {
	return [numLoops]string{"quota"}[l]
}

// Decision is one control-loop decision.
type Decision struct {
	At      time.Duration // since the log's start
	Loop    Loop
	Subject int // the view decided about
	// From → To is what changed: the quota (Quota).
	From, To int
	Delta    float64 // the window δ(Q) the move acted on; NaN for a probe or a manual set
	Reason   string  // the rule or plan that fired
}

func (d Decision) String() string {
	return fmt.Sprintf("%s %d: %d -> %d (%s)", d.Loop, d.Subject, d.From, d.To, d.Reason)
}

// Capacity is how many decisions a Log keeps: the oldest go first.
const Capacity = 1024

// Log is a bounded decision log, safe for concurrent use: the last Capacity
// decisions, allocated as it fills, and an exact count per loop. It never
// calls out while it holds its lock, so loops add with their own locks held.
// The zero value is ready; its clock then starts at the first Add.
type Log struct {
	mu     sync.Mutex
	start  time.Time
	kept   []Decision
	oldest int // once kept is full, the slot the next Add overwrites
	counts [numLoops]int64
}

// NewLog creates a log whose clock starts now.
func NewLog() *Log { return &Log{start: time.Now()} }

// Add stamps d with its offset from the log's start, keeps it, and returns it
// as kept.
func (l *Log) Add(d Decision) Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if l.start.IsZero() {
		l.start = now
	}
	d.At = now.Sub(l.start)
	l.counts[d.Loop]++
	if len(l.kept) < Capacity {
		l.kept = append(l.kept, d)
	} else {
		l.kept[l.oldest] = d
		l.oldest = (l.oldest + 1) % Capacity
	}
	return d
}

// Entries returns a copy of the kept decisions, oldest first.
func (l *Log) Entries() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(append([]Decision(nil), l.kept[l.oldest:]...), l.kept[:l.oldest]...)
}

// Count returns how many decisions loop has made, dropped ones included.
func (l *Log) Count(loop Loop) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[loop]
}

// moves returns the kept quota moves of view subject, oldest first.
func (l *Log) moves(subject int) []Decision {
	var out []Decision
	for _, d := range l.Entries() {
		if d.Subject == subject {
			out = append(out, d)
		}
	}
	return out
}

// Timeline renders the kept quota moves of view subject as
// "Q0 -(t)-> Q1 -(t)-> Q2", t in milliseconds since the log's start.
func (l *Log) Timeline(subject int) string {
	var b strings.Builder
	for _, d := range l.moves(subject) {
		if b.Len() == 0 {
			fmt.Fprintf(&b, "%d", d.From)
		}
		fmt.Fprintf(&b, " -(%dms)-> %d", d.At.Milliseconds(), d.To)
	}
	if b.Len() == 0 {
		return "(no quota changes)"
	}
	return b.String()
}

// WriteCSV writes the kept quota moves of view subject as CSV, oldest
// first, under the header "at_ms,from,to,delta,rule": the move's offset from
// the log's start, the quota before and after, the window δ(Q) it acted on
// (NaN for a probe or a manual set) and the rule that fired.
func (l *Log) WriteCSV(w io.Writer, subject int) error {
	cw := csv.NewWriter(w)
	// A failed write sticks: cw.Error reports it after the Flush.
	_ = cw.Write([]string{"at_ms", "from", "to", "delta", "rule"})
	for _, d := range l.moves(subject) {
		_ = cw.Write([]string{
			strconv.FormatFloat(float64(d.At)/float64(time.Millisecond), 'f', 3, 64),
			strconv.Itoa(d.From), strconv.Itoa(d.To),
			strconv.FormatFloat(d.Delta, 'f', 6, 64), d.Reason,
		})
	}
	cw.Flush()
	return cw.Error()
}
