package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
)

// Prometheus text exposition (version 0.0.4) helpers. Histograms are
// recorded in nanoseconds but exposed in seconds, per convention: a
// histogram registered under base name "hemeserved_step_duration" is
// emitted as hemeserved_step_duration_seconds with _bucket/_sum/_count
// series.

// WriteCounter emits one counter with its HELP/TYPE header.
func WriteCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// WriteGauge emits one gauge with its HELP/TYPE header.
func WriteGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// WriteCounterFloat emits one float-valued counter.
func WriteCounterFloat(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
}

// WriteHistogram emits one histogram under base+"_seconds": cumulative
// buckets with le labels in seconds, then _sum and _count.
func WriteHistogram(w io.Writer, base, help string, h *Histogram) {
	name := base + "_seconds"
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistogramSeries(w, name, "", h)
}

// WriteHistogramSet emits a labelled histogram family under
// base+"_seconds", one series set per label value, sorted for stable
// output.
func WriteHistogramSet(w io.Writer, base, help, label string, set *HistogramSet) {
	name := base + "_seconds"
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, kv := range set.sorted() {
		writeHistogramSeries(w, name, fmt.Sprintf("%s=%q", label, kv.label), kv.h)
	}
}

// writeHistogramSeries emits the bucket/sum/count series of one
// histogram, with extraLabels (`k="v"` form, comma-joined) merged into
// each bucket's label set.
func writeHistogramSeries(w io.Writer, name, extraLabels string, h *Histogram) {
	var cum int64
	sep := ""
	if extraLabels != "" {
		sep = ","
	}
	for i := 0; i < histBuckets; i++ {
		cum += h.Bucket(i)
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n",
			name, extraLabels, sep, float64(BucketBoundNs(i))/1e9, cum)
	}
	cum += h.Bucket(histOverflow)
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, extraLabels, sep, cum)
	if extraLabels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, float64(h.SumNs())/1e9, name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n",
			name, extraLabels, float64(h.SumNs())/1e9, name, extraLabels, h.Count())
	}
}

// HistogramSet is a family of histograms keyed by one label value
// (e.g. HTTP route). The zero value is ready to use. Get interns the
// histogram for a label so callers can hold the pointer and skip the
// map on hot paths.
type HistogramSet struct {
	mu sync.Mutex
	m  map[string]*Histogram
}

// Get returns (creating if needed) the histogram for a label value.
func (s *HistogramSet) Get(label string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*Histogram)
	}
	h := s.m[label]
	if h == nil {
		h = &Histogram{}
		s.m[label] = h
	}
	return h
}

type labelledHist struct {
	label string
	h     *Histogram
}

func (s *HistogramSet) sorted() []labelledHist {
	s.mu.Lock()
	out := make([]labelledHist, 0, len(s.m))
	for k, h := range s.m {
		out = append(out, labelledHist{k, h})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// WriteRuntimeMetrics emits the Go runtime gauges every scrape should
// carry: goroutine count, heap occupancy, bytes allocated and GC
// activity.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	WriteGauge(w, "go_goroutines", "Number of live goroutines.", int64(runtime.NumGoroutine()))
	WriteGauge(w, "go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", int64(ms.HeapAlloc))
	WriteGauge(w, "go_memstats_heap_objects", "Number of allocated heap objects.", int64(ms.HeapObjects))
	WriteCounter(w, "go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", int64(ms.TotalAlloc))
	WriteCounter(w, "go_gc_cycles_total", "Completed GC cycles.", int64(ms.NumGC))
	WriteCounterFloat(w, "go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)
}
