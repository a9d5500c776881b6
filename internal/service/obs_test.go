package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// shortSpec finishes quickly but steps enough to cross snapshot,
// checkpoint and phase-sample cadences.
const shortSpec = `{"preset":"pipe","steps":64,"scale":0.6}`

// promParse is a minimal Prometheus text-exposition (0.0.4) validator:
// every sample line must be `name[{labels}] value`, every family must
// declare its TYPE before its first sample, histogram bucket series
// must be cumulative and end with a +Inf bucket equal to _count.
func promParse(t *testing.T, body string) {
	t.Helper()
	types := map[string]string{}
	bucketPrev := map[string]float64{} // label-set-qualified series -> last cumulative
	bucketInf := map[string]float64{}  // family+labels(minus le) -> +Inf value
	counts := map[string]float64{}     // family+labels -> _count value
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for i, line := range strings.Split(body, "\n") {
		where := fmt.Sprintf("line %d: %q", i+1, line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("%s: malformed TYPE", where)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("%s: unknown type %q", where, f[3])
			}
			if _, dup := types[f[2]]; dup {
				t.Fatalf("%s: duplicate TYPE for %s", where, f[2])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		// Sample: name[{labels}] value
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("%s: no value", where)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("%s: bad value: %v", where, err)
		}
		series := line[:sp]
		name, labels := series, ""
		if at := strings.Index(series, "{"); at >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("%s: unterminated label set", where)
			}
			name, labels = series[:at], series[at+1:len(series)-1]
		}
		fam := family(name)
		if _, ok := types[fam]; !ok {
			t.Fatalf("%s: sample before TYPE for family %q", where, fam)
		}
		if types[fam] != "histogram" {
			continue
		}
		// Histogram bookkeeping: strip the le label to key the series.
		var rest []string
		le := ""
		for _, kv := range strings.Split(labels, ",") {
			if strings.HasPrefix(kv, `le="`) {
				le = strings.TrimSuffix(strings.TrimPrefix(kv, `le="`), `"`)
			} else if kv != "" {
				rest = append(rest, kv)
			}
		}
		key := fam + "|" + strings.Join(rest, ",")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				t.Fatalf("%s: bucket without le label", where)
			}
			if val < bucketPrev[key] {
				t.Fatalf("%s: bucket counts not cumulative (%g after %g)", where, val, bucketPrev[key])
			}
			bucketPrev[key] = val
			if le == "+Inf" {
				bucketInf[key] = val
			}
		case strings.HasSuffix(name, "_count"):
			counts[key] = val
		}
	}
	if len(types) == 0 {
		t.Fatal("no TYPE lines at all — not Prometheus exposition")
	}
	for key, c := range counts {
		inf, ok := bucketInf[key]
		if !ok {
			t.Fatalf("histogram %s has _count but no +Inf bucket", key)
		}
		if inf != c {
			t.Fatalf("histogram %s: +Inf bucket %g != count %g", key, inf, c)
		}
	}
}

// TestMetricsPrometheusValid runs a job to completion and validates the
// default /metrics output as Prometheus text exposition, with the phase
// histograms populated.
func TestMetricsPrometheusValid(t *testing.T) {
	_, base := startServer(t, 1, 4)
	info := submit(t, base, shortSpec)
	waitFor(t, "job done", func() bool {
		var got JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+info.ID, "", &got)
		return got.State.Terminal()
	})

	code, body := httpGetRaw(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	out := string(body)
	promParse(t, out)
	for _, want := range []string{
		"# TYPE hemeserved_step_duration_seconds histogram",
		"# TYPE hemeserved_collective_wait_seconds histogram",
		"# TYPE hemeserved_http_request_duration_seconds histogram",
		"# TYPE go_goroutines gauge",
		`route="GET /metrics"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The job stepped: its sampled step durations must have landed.
	if !strings.Contains(out, "hemeserved_step_duration_seconds_count ") {
		t.Fatal("no step duration count")
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "hemeserved_step_duration_seconds_count ") {
			if v, _ := strconv.ParseFloat(strings.Fields(line)[1], 64); v < 1 {
				t.Errorf("step duration histogram empty after a %s run: %s", info.ID, line)
			}
		}
	}
}

// TestJobEventsEndpoint checks the flight recorder end to end: the
// lifecycle events land in order, phase samples appear, and the
// endpoint keeps serving after the job is terminal.
func TestJobEventsEndpoint(t *testing.T) {
	_, base := startServer(t, 1, 4)
	info := submit(t, base, shortSpec)
	waitFor(t, "job done", func() bool {
		var got JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+info.ID, "", &got)
		return got.State.Terminal()
	})

	var rep struct {
		Job    string      `json:"job"`
		State  JobState    `json:"state"`
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if code := httpJSON(t, "GET", base+"/api/v1/jobs/"+info.ID+"/events", "", &rep); code != http.StatusOK {
		t.Fatalf("/events status %d", code)
	}
	if rep.Job != info.ID || rep.State != StateDone {
		t.Fatalf("events envelope: %+v", rep)
	}
	if rep.Total == 0 || len(rep.Events) == 0 {
		t.Fatal("no events recorded")
	}
	seen := map[string]bool{}
	var prevSeq uint64
	for _, ev := range rep.Events {
		if ev.Seq <= prevSeq {
			t.Fatalf("events out of order: %d after %d", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		seen[ev.Type] = true
	}
	for _, want := range []string{obs.EvSubmitted, obs.EvDispatched, obs.EvTerminal, "phase-step"} {
		if !seen[want] {
			t.Errorf("missing %q event; saw %v", want, seen)
		}
	}
	if last := rep.Events[len(rep.Events)-1]; last.Type != obs.EvTerminal {
		t.Errorf("last event %q, want terminal", last.Type)
	}

	// The job summary carries the recorder's totals.
	var got JobInfo
	httpJSON(t, "GET", base+"/api/v1/jobs/"+info.ID, "", &got)
	if got.Events != rep.Total || got.LastEvent != obs.EvTerminal {
		t.Errorf("job info events=%d last=%q, want %d/terminal", got.Events, got.LastEvent, rep.Total)
	}

	if code := httpJSON(t, "GET", base+"/api/v1/jobs/no-such/events", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown job events status %d, want 404", code)
	}
}

// TestHealthzDraining: /healthz flips to 503 the moment shutdown
// begins, so load balancers stop routing before connections drain.
func TestHealthzDraining(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	if code, body := httpGetRaw(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthy: status %d body %q", code, body)
	}
	srv.mgr.Close()
	if code, _ := httpGetRaw(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", code)
	}
}

// TestJobObserverAllocationFree guards the hot path: folding a phase
// sample into the histograms and a warm flight-recorder ring must not
// allocate — it runs on the solver's stepping goroutine.
func TestJobObserverAllocationFree(t *testing.T) {
	j := &Job{rec: obs.NewRecorder(16)}
	for i := 0; i < 20; i++ {
		j.rec.Record(obs.EvSnapshotSkip, i, 0, "")
	}
	var o obs.PhaseObserver = jobObserver{m: &Metrics{}, j: j}
	if allocs := testing.AllocsPerRun(200, func() {
		o.ObservePhase(obs.PhaseStep, 42, 12345)
		o.ObservePhase(obs.PhaseCollective, 42, 678)
	}); allocs != 0 {
		t.Errorf("ObservePhase allocates %.1f objects per run, want 0", allocs)
	}
}

// TestEventsRingWrap: a long-enough run overflows the ring; the
// endpoint then serves exactly the newest ringful with seq gaps
// acknowledged by total.
func TestEventsRingWrap(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, QueueCap: 4, EventRing: 8})
	t.Cleanup(m.Close)
	var spec JobSpec
	if err := json.Unmarshal([]byte(shortSpec), &spec); err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job terminal", func() bool { return j.State().Terminal() })
	// Drain stragglers: finish() seals before the run goroutine fully
	// returns, so give the recorder a beat to settle.
	time.Sleep(20 * time.Millisecond)
	evs := j.rec.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	if j.rec.Seq() <= 8 {
		t.Fatalf("seq %d: expected the run to overflow an 8-slot ring", j.rec.Seq())
	}
	if evs[0].Seq != j.rec.Seq()-7 {
		t.Errorf("oldest kept seq %d, want %d", evs[0].Seq, j.rec.Seq()-7)
	}
}
