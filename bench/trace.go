package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own files, around its
// calls into each layer (choosing-metrics §4: spans inside the program are a
// later change). Everything stays in memory until the run ends.
//
// File format, one JSON object per line:
//
//	{"span":7,"trace":0,"parent":3,"name":"window/2","start_ns":..,"end_ns":..}
//
// span is unique; trace is shared by the spans of one request (0 for
// structural spans); parent is the span that caused this one (0 = root);
// times are nanoseconds since the run's first span.

// reqSpan is one request (or one library transaction) in the traced phase.
// A sampled request also has a subSpan (the i-th sampled reqSpan of a source
// pairs with its i-th subSpan) carrying the two inner boundaries that split
// the request into generator encode, in flight, and decode + audit.
type reqSpan struct {
	seq     uint32
	name    uint8 // workload-defined kind; tracer.nameOf turns it into text
	win     int16
	sampled bool
	t0, t1  int64 // build start, response handled
}

type subSpan struct{ enc, rd int64 } // encode done, frame read

// reqSpansPerFile caps the request spans written per source (connection or
// thread): a span per request at several hundred thousand requests a second
// would make a file of hundreds of megabytes. The per-name totals printed by
// the run cover every recorded span; the file holds the earliest ones.
const reqSpansPerFile = 100_000

// structSpan's id is its index in tracer.spans plus one.
type structSpan struct {
	parent     int
	name       string
	start, end int64
}

// tracer owns the structural spans (run, set-up, windows, probes) and the
// per-source request-span buffers.
type tracer struct {
	mu         sync.Mutex
	epoch      time.Time
	spans      []structSpan
	sources    [][]reqSpan
	subSources [][]subSpan
	winSpan    []int // span id of traced window i
	nameOf     func(uint8) string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a structural span and returns its id; end closes it. A nil
// tracer records nothing, so call sites need no trace/no-trace branches.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, structSpan{parent: parent, name: name, start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = t.now()
	t.mu.Unlock()
}

// addWindows files the one-second window spans of the traced phase that
// began at t0; request spans name their window as parent.
func (t *tracer) addWindows(parent int, t0 time.Time, nWin int) {
	start := int64(t0.Sub(t.epoch))
	for w := 0; w < nWin; w++ {
		t.spans = append(t.spans, structSpan{parent: parent, name: "window/" + strconv.Itoa(w),
			start: start + int64(w)*int64(time.Second), end: start + int64(w+1)*int64(time.Second)})
		t.winSpan = append(t.winSpan, len(t.spans))
	}
}

// addSource hands over one connection's or thread's request spans.
func (t *tracer) addSource(spans []reqSpan, subs []subSpan) {
	t.sources = append(t.sources, spans)
	t.subSources = append(t.subSources, subs)
}

// spanTotals is the per-name summary printed by a traced run: count, mean
// duration, and mean self time (duration minus the part child spans cover).
type spanTotals struct {
	name              string
	n                 int
	meanNs, selfNs    float64
	sampledN          int
	encNs, decAuditNs float64
}

func (t *tracer) totals() []spanTotals {
	var all [256]spanTotals
	for si, src := range t.sources {
		subs := t.subSources[si]
		for i := range src {
			s := &src[i]
			o := &all[s.name]
			o.n++
			o.meanNs += float64(s.t1 - s.t0)
			if s.sampled && len(subs) > 0 {
				sub := subs[0]
				subs = subs[1:]
				o.sampledN++
				o.encNs += float64(sub.enc - s.t0)
				o.decAuditNs += float64(s.t1 - sub.rd)
				o.selfNs += float64(sub.rd - sub.enc)
			}
		}
	}
	var out []spanTotals
	for i := range all {
		o := &all[i]
		if o.n == 0 {
			continue
		}
		o.name = t.nameOf(uint8(i))
		o.meanNs /= float64(o.n)
		if o.sampledN > 0 {
			o.encNs /= float64(o.sampledN)
			o.decAuditNs /= float64(o.sampledN)
			o.selfNs /= float64(o.sampledN)
		}
		out = append(out, *o)
	}
	return out
}

// write dumps every structural span and up to reqSpansPerFile request spans
// per source to path.
func (t *tracer) write(path string) (written int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	emit := func(span, trace, parent int, name string, start, end int64) {
		line = append(line[:0], `{"span":`...)
		line = strconv.AppendInt(line, int64(span), 10)
		line = append(line, `,"trace":`...)
		line = strconv.AppendInt(line, int64(trace), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(parent), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, end, 10)
		line = append(line, "}\n"...)
		_, _ = w.Write(line) // surfaced by Flush below
		written++
	}
	for i, s := range t.spans {
		emit(i+1, 0, s.parent, s.name, s.start, s.end)
	}
	next := len(t.spans) + 1
	for si, src := range t.sources {
		subs := t.subSources[si]
		if len(src) > reqSpansPerFile {
			src = src[:reqSpansPerFile]
		}
		for i := range src {
			s := &src[i]
			parent := 0
			if int(s.win) < len(t.winSpan) {
				parent = t.winSpan[s.win]
			}
			trace := (si+1)<<32 | int(s.seq)
			name := t.nameOf(s.name)
			emit(next, trace, parent, name, s.t0, s.t1)
			if s.sampled && len(subs) > 0 {
				emit(next+1, trace, next, "gen.encode", s.t0, subs[0].enc)
				emit(next+2, trace, next, "gen.decode_audit", subs[0].rd, s.t1)
				subs = subs[1:]
				next += 2
			}
			next++
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return written, err
	}
	return written, f.Close()
}
