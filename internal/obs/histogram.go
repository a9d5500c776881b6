// Package obs is the observability toolkit under the service layer:
// allocation-free log-bucketed latency histograms, a per-job flight
// recorder (a fixed ring of structured events), Prometheus text
// exposition helpers, and small log/slog conveniences. Everything here
// is designed to be cheap enough to live on solver hot paths — an
// Observe is a handful of atomic adds, a Record is one mutex hold and
// a struct copy into a pre-allocated ring slot.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: bucket i counts observations v (in
// nanoseconds) with v <= histMinNs<<i; the last slot is the +Inf
// overflow. histMinNs = 1024ns keeps the index computation a bit
// length, and 30 doublings span ~1µs to ~17min — every latency this
// service produces.
const (
	histMinNs     = 1024
	histMinShift  = 10 // log2(histMinNs)
	histBuckets   = 30
	histOverflow  = histBuckets // index of the +Inf slot
	histSlotCount = histBuckets + 1
)

// Histogram is a lock-free, allocation-free histogram of nanosecond
// durations with log-spaced buckets. The zero value is ready to use,
// so it can be embedded directly in metrics structs that are created
// as plain composite literals.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histSlotCount]atomic.Int64
}

// bucketIndex maps a nanosecond value onto its bucket.
func bucketIndex(ns int64) int {
	if ns <= histMinNs {
		return 0
	}
	idx := bits.Len64(uint64(ns-1)) - histMinShift
	if idx >= histSlotCount {
		return histOverflow
	}
	return idx
}

// BucketBoundNs returns bucket i's inclusive upper bound in
// nanoseconds, or -1 for the +Inf overflow slot.
func BucketBoundNs(i int) int64 {
	if i >= histOverflow {
		return -1
	}
	return histMinNs << i
}

// Observe folds one duration into the histogram. Safe for concurrent
// use; never allocates.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumNs returns the sum of all observed durations in nanoseconds.
func (h *Histogram) SumNs() int64 { return h.sumNs.Load() }

// Bucket returns the (non-cumulative) count of slot i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Quantile estimates the p-th quantile (0 < p <= 1) in nanoseconds by
// locating the bucket where the cumulative count crosses p and
// linearly interpolating inside it. Returns 0 with no observations.
// The estimate is as coarse as the buckets (a factor-2 band), which is
// exactly good enough for p50/p95/p99 latency reporting.
func (h *Histogram) Quantile(p float64) int64 {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	target := p * float64(total)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histSlotCount; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= target {
			hi := BucketBoundNs(i)
			if hi < 0 {
				// Overflow bucket has no upper bound; report its lower
				// edge — a floor, clearly huge either way.
				return histMinNs << (histBuckets - 1)
			}
			lo := int64(0)
			if i > 0 {
				lo = BucketBoundNs(i - 1)
			}
			frac := (target - float64(cum)) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return BucketBoundNs(histBuckets - 1)
}
