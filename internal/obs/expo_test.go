package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestWriteHistogramInvariants(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{500, 2000, 2_000_000, 3_000_000_000} {
		h.Observe(ns)
	}
	var buf bytes.Buffer
	WriteHistogram(&buf, "x_test_duration", "help text", &h)
	out := buf.String()
	if !strings.Contains(out, "# TYPE x_test_duration_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	var prev int64 = -1
	var infSeen bool
	var count int64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "x_test_duration_seconds_bucket") {
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("bucket counts not cumulative: %q after %d", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				infSeen = true
				if v != h.Count() {
					t.Errorf("+Inf bucket %d != count %d", v, h.Count())
				}
			}
		}
		if strings.HasPrefix(line, "x_test_duration_seconds_count ") {
			count, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket emitted")
	}
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
}

func TestWriteHistogramSetLabels(t *testing.T) {
	var set HistogramSet
	set.Get("GET /api/v1/jobs/{id}").Observe(1000)
	set.Get("POST /api/v1/jobs").Observe(2000)
	var buf bytes.Buffer
	WriteHistogramSet(&buf, "x_http_request_duration", "help", "route", &set)
	out := buf.String()
	if !strings.Contains(out, `route="GET /api/v1/jobs/{id}",le="+Inf"`) {
		t.Errorf("missing labelled +Inf bucket:\n%s", out)
	}
	if strings.Count(out, "# TYPE") != 1 {
		t.Errorf("family must share one TYPE header:\n%s", out)
	}
	// Same pointer back for the same label — handlers cache it.
	if set.Get("POST /api/v1/jobs") != set.Get("POST /api/v1/jobs") {
		t.Error("Get not stable for equal labels")
	}
}

func TestWriteRuntimeMetricsParses(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf)
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("sample line %q not `name value`", line)
		}
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		samples++
	}
	if samples < 4 {
		t.Fatalf("too few runtime metrics:\n%s", buf.String())
	}
	// The allocation counter is a counter, and counts: a scrape after
	// allocating reads at least those bytes more.
	if !strings.Contains(buf.String(), "# TYPE go_memstats_alloc_bytes_total counter\n") {
		t.Fatalf("no go_memstats_alloc_bytes_total counter:\n%s", buf.String())
	}
	before := runtimeSample(t, buf.String(), "go_memstats_alloc_bytes_total")
	sink = make([]byte, 1<<20)
	buf.Reset()
	WriteRuntimeMetrics(&buf)
	if after := runtimeSample(t, buf.String(), "go_memstats_alloc_bytes_total"); after < before+1<<20 {
		t.Fatalf("go_memstats_alloc_bytes_total %v after allocating 1 MiB, %v before", after, before)
	}
}

// sink keeps an allocation the compiler cannot remove.
var sink []byte

// runtimeSample returns the value of the sample named name in text.
func runtimeSample(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no sample %s in:\n%s", name, text)
	return 0
}
