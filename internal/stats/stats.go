// Package stats provides the small measurement helpers the benches and
// the steering status reports share: wall-clock stage timers and
// load-imbalance summaries.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Timer accumulates wall-clock time over repeated Start/Stop cycles.
type Timer struct {
	total   time.Duration
	count   int
	started time.Time
	running bool
}

// Start begins a measurement interval.
func (t *Timer) Start() {
	t.started = time.Now()
	t.running = true
}

// Stop ends the interval and accumulates it.
func (t *Timer) Stop() {
	if !t.running {
		return
	}
	t.total += time.Since(t.started)
	t.count++
	t.running = false
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return t.total }

// Count returns the number of completed intervals.
func (t *Timer) Count() int { return t.count }

// Mean returns the average interval length.
func (t *Timer) Mean() time.Duration {
	if t.count == 0 {
		return 0
	}
	return t.total / time.Duration(t.count)
}

// Summary describes a sample of values.
type Summary struct {
	Min, Max, Mean, Std float64
	N                   int
}

// Summarise computes a Summary over vals.
func Summarise(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{Min: vals[0], Max: vals[0], N: len(vals)}
	sum, sum2 := 0.0, 0.0
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
		sum2 += v * v
	}
	s.Mean = sum / float64(s.N)
	variance := sum2/float64(s.N) - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	return s
}

// Imbalance returns max/mean of the sample — the standard parallel
// load-balance metric (1.0 = perfect).
func Imbalance(vals []float64) float64 {
	s := Summarise(vals)
	if s.Mean == 0 {
		return 1
	}
	return s.Max / s.Mean
}

// ImbalanceI64 is Imbalance for integer samples (e.g. per-rank bytes).
func ImbalanceI64(vals []int64) float64 {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	return Imbalance(f)
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.4g max=%.4g mean=%.4g std=%.4g n=%d", s.Min, s.Max, s.Mean, s.Std, s.N)
}
