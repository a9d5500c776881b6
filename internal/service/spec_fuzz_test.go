package service

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestValidateRejectsNonFiniteFloats pins the finiteness fix: NaN
// compares false against every range bound, so NaN scale/tau/h used to
// pass Validate and reach the solver. JSON cannot carry NaN, but
// programmatic submitters call Validate directly.
func TestValidateRejectsNonFiniteFloats(t *testing.T) {
	base := JobSpec{Preset: "pipe", Steps: 10}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	for name, mutate := range map[string]func(*JobSpec){
		"scale-nan":        func(s *JobSpec) { s.Scale = math.NaN() },
		"scale-inf":        func(s *JobSpec) { s.Scale = math.Inf(1) },
		"h-nan":            func(s *JobSpec) { s.H = math.NaN() },
		"tau-nan":          func(s *JobSpec) { s.Tau = math.NaN() },
		"tau-neg-inf":      func(s *JobSpec) { s.Tau = math.Inf(-1) },
		"pulse-amp-nan":    func(s *JobSpec) { s.PulseAmp = math.NaN() },
		"pulse-period-inf": func(s *JobSpec) { s.PulsePeriod = math.Inf(1) },
	} {
		sp := base
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: non-finite spec passed Validate", name)
		} else if !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: wrong rejection: %v", name, err)
		}
	}
}

// TestCoreConfigNeverRendersInLoop: viz_every is parsed and inert — no
// spec value reaches the solver, so a daemon job never renders inside
// its step loop.
func TestCoreConfigNeverRendersInLoop(t *testing.T) {
	for _, v := range []int{-1, 0, 8} {
		cfg, err := JobSpec{Preset: "pipe", Steps: 10, VizEvery: v}.coreConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.VizEvery != 0 {
			t.Errorf("viz_every %d reached the solver as VizEvery %d, want 0", v, cfg.VizEvery)
		}
	}
}

// BenchmarkDefaultSpecJob times started→finished of a 400-step pipe job
// submitted with the documented minimal spec against the same job with
// viz_every -1, alternating on one Manager (warm domain cache). The two
// used to differ by the frames the default spec rendered inside the
// solver loop for nobody; now they are the same job, and neither
// renders anything.
func BenchmarkDefaultSpecJob(b *testing.B) {
	m := NewManagerOpts(Options{Workers: 1, QueueCap: 4})
	defer m.Close()
	run := func(spec JobSpec) time.Duration {
		j, err := m.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		for !j.State().Terminal() {
			time.Sleep(200 * time.Microsecond)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.state != StateDone {
			b.Fatalf("%s ended %s: %s", j.ID, j.state, j.errMsg)
		}
		return j.finished.Sub(j.started)
	}
	def := JobSpec{Preset: "pipe", Steps: 400}
	off := def
	off.VizEvery = -1
	run(def) // voxelise and plan once, outside the timings
	b.ResetTimer()
	var defNs, offNs time.Duration
	for i := 0; i < b.N; i++ {
		defNs += run(def)
		offNs += run(off)
	}
	b.ReportMetric(float64(defNs.Microseconds())/1e3/float64(b.N), "default-ms/job")
	b.ReportMetric(float64(offNs.Microseconds())/1e3/float64(b.N), "vizoff-ms/job")
	b.ReportMetric(float64(defNs)/float64(offNs), "default/vizoff")
	if n := m.metrics.RendersTotal.Load() + m.metrics.RenderLatency.Count(); n != 0 {
		b.Errorf("%d renders for jobs nobody asked a frame of", n)
	}
}

// FuzzSpecJSON drives the submission path with arbitrary JSON bodies:
// decode must never panic, an accepted spec must survive defaulting
// and solver-config assembly, and accepted specs must round-trip
// through their canonical JSON form and still be accepted.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"preset":"pipe","steps":64}`))
	f.Add([]byte(`{"preset":"bend","steps":1,"scale":2,"h":0.5,"tau":0.9,"ranks":4,"threads":2}`))
	f.Add([]byte(`{"preset":"stenosis","steps":100,"viz_every":-1,"snapshot_every":-1,"checkpoint_every":-1}`))
	f.Add([]byte(`{"preset":"pipe","steps":9e99}`))
	f.Add([]byte(`{"preset":"pipe","steps":64,"scale":1e308}`))
	f.Add([]byte(`{"preset":"","steps":0}`))
	f.Add([]byte(`{"preset":"pipe","steps":64,"pulse_amp":-1e308,"pulse_period":1e-308}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp JobSpec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		err := sp.Validate()
		if err != nil {
			return
		}
		// Accepted: the rest of the submission path must hold.
		def := sp.withDefaults()
		if def.withDefaults() != def {
			t.Fatalf("withDefaults not idempotent: %+v", def)
		}
		if _, err := def.coreConfig(); err != nil {
			t.Fatalf("validated spec rejected by coreConfig: %v", err)
		}
		// Canonical round trip: marshal and re-accept.
		out, err := json.Marshal(def)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		var back JobSpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("canonical form does not parse: %v", err)
		}
		if back != def {
			t.Fatalf("round trip changed the spec: %+v vs %+v", back, def)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec rejected: %v", err)
		}
	})
}
