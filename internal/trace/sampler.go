package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"votm/internal/rac"
)

// Sample is one point of a view's contention time series.
type Sample struct {
	Offset      time.Duration // since sampling started
	Quota       int
	Commits     int64
	Aborts      int64
	Escalations int64   // retry-budget escalations to exclusive mode
	Panics      int64   // user panics unwound through the runtime
	Delta       float64 // δ(Q) over the interval since the previous sample
}

// ViewProbe is the slice of the view API the sampler needs (satisfied by
// *core.View / *votm.View).
type ViewProbe interface {
	Quota() int
	Totals() rac.Totals
}

// Sampler periodically records a view's quota and windowed δ(Q), producing
// the time series behind the paper's "when and how" analysis: when δ(Q)
// crosses 1 and how quickly the quota reacts.
type Sampler struct {
	mu      sync.Mutex
	samples []Sample
	prev    rac.Totals
	start   time.Time

	stop chan struct{}
	done chan struct{}
}

// StartSampler samples view every interval until Stop is called.
func StartSampler(view ViewProbe, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	s := &Sampler{
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				s.record(view)
				return
			case <-ticker.C:
				s.record(view)
			}
		}
	}()
	return s
}

func (s *Sampler) record(view ViewProbe) {
	cur := view.Totals()
	q := view.Quota()
	s.mu.Lock()
	defer s.mu.Unlock()
	window := rac.Totals{SuccessNs: cur.SuccessNs - s.prev.SuccessNs, AbortNs: cur.AbortNs - s.prev.AbortNs}
	s.samples = append(s.samples, Sample{
		Offset:      time.Since(s.start),
		Quota:       q,
		Commits:     cur.Commits,
		Aborts:      cur.Aborts,
		Escalations: cur.Escalations,
		Panics:      cur.Panics,
		Delta:       window.Delta(q),
	})
	s.prev = cur
}

// Stop ends sampling (recording one final point) and returns the series.
func (s *Sampler) Stop() []Sample {
	select {
	case <-s.done:
	default:
		close(s.stop)
		<-s.done
	}
	return s.Samples()
}

// Samples returns a copy of the series collected so far.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// WriteCSV emits the series as CSV with a header row.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "offset_ms,quota,commits,aborts,escalations,panics,delta"); err != nil {
		return err
	}
	for _, p := range s.Samples() {
		d := "NaN"
		if !math.IsNaN(p.Delta) {
			d = fmt.Sprintf("%.6f", p.Delta)
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%s\n",
			p.Offset.Milliseconds(), p.Quota, p.Commits, p.Aborts,
			p.Escalations, p.Panics, d); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders the quota series as a compact ASCII strip (one char per
// sample, log2 of the quota), handy for terminal output:
// "4443221111111122" shows RAC throttling then probing.
func (s *Sampler) Sparkline() string {
	var b strings.Builder
	for _, p := range s.Samples() {
		lg := 0
		for q := p.Quota; q > 1; q >>= 1 {
			lg++
		}
		b.WriteByte(byte('0' + lg%10))
	}
	return b.String()
}
