package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the tables the
// program reports from: every declared workload and metric exists in
// the program with the same unit, direction and bound, and vice versa,
// within the contract's naming and count limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(testRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d (contract: 2 to 8)", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q / %q, program %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %q: name or why outside the contract's limits (why is %d chars)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, decl []declared, defs []metricDef, limit int, bounded bool) {
		if len(decl) != len(defs) || len(decl) < 1 || len(decl) > limit {
			t.Fatalf("%s: %d declared, program has %d (contract: 1 to %d)", kind, len(decl), len(defs), limit)
		}
		for i, d := range decl {
			def := defs[i]
			if d.Name != def.Name || d.Unit != def.Unit || d.Better != def.Better {
				t.Errorf("%s %d: declared %+v, program %+v", kind, i, d, def)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s %q: name, unit or direction outside the contract", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s %q: name used twice", kind, d.Name)
			}
			seen[d.Name] = true
			switch {
			case bounded && (d.Bound == nil || *d.Bound != def.Bound || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s %q: bound %v, program %v (contract: (0, 0.25])", kind, d.Name, d.Bound, def.Bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16, true)
	check("per_layer", bf.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("setup_s is mandatory")
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// quickRun runs one workload at smoke-test size and fails the test if a
// hemeserved process or a temp dir of the run outlives it.
func quickRun(t *testing.T, o options, hook func(leg string, s *session)) *report {
	t.Helper()
	o.root, o.quick, o.seed = testRoot(t), true, 7
	tmp := filepath.Join(o.root, ".bench_build", "tmp")
	before := runDirs(tmp)
	o.hook = hook
	rep, err := runWorkload(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if pids := daemonPIDs(filepath.Join(o.root, ".bench_build", "hemeserved")); len(pids) > 0 {
		t.Errorf("hemeserved processes survived the run: %v", pids)
	}
	if after := runDirs(tmp); after > before {
		t.Errorf("%d run directories left under %s", after-before, tmp)
	}
	return rep
}

func runDirs(tmp string) int {
	m, _ := filepath.Glob(filepath.Join(tmp, "run-*")) // a malformed pattern is the only error
	return len(m)
}

// daemonPIDs lists live processes whose executable is bin.
func daemonPIDs(bin string) []string {
	var pids []string
	entries, _ := os.ReadDir("/proc") // no /proc: nothing to report
	for _, e := range entries {
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, e.Name())
		}
	}
	return pids
}

// TestEndToEndRunEmitsDeclaredMetrics: an untraced run reports exactly
// the end-to-end metrics, each positive, with no failed operation.
func TestEndToEndRunEmitsDeclaredMetrics(t *testing.T) {
	rep := quickRun(t, options{workload: "kernel-small", seconds: 2}, nil)
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("run not correct: %d/%d failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if v, ok := rep.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("%s: reported %+v (present %v), want a positive value in %s", d.Name, v, ok, d.Unit)
		}
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil || !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line %s: %v", rep.resultLine(), err)
	}
}

// TestTracedRunEmitsLayersAndSpans: a traced run of the workload that
// uses every layer (store, kill and resume included) reports exactly the
// per-layer metrics and writes a span file whose spans nest inside
// their parents and whose self times are not negative.
func TestTracedRunEmitsLayersAndSpans(t *testing.T) {
	rep := quickRun(t, options{workload: "ckpt-long", seconds: 3, trace: true}, nil)
	if !rep.Correct {
		t.Fatalf("run not correct: %d/%d failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if v, ok := rep.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: missing or wrong unit (%+v)", d.Name, v)
		}
	}
	for _, must := range []string{"lb.step_ns_per_site", "store.recover_ms", "store.checkpoints_written", "service.submit_ms", "insitu.render_ms", "octree.query_ms"} {
		if rep.Metrics[must].Value <= 0 {
			t.Errorf("%s = %g, want > 0 on ckpt-long", must, rep.Metrics[must].Value)
		}
	}
	data, err := os.ReadFile(rep.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(tf.Spans) == 0 || len(tf.Layers) == 0 {
		t.Fatalf("trace has %d spans, %d layers", len(tf.Spans), len(tf.Layers))
	}
	for i, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s: ends before it starts", i, s.Name)
		}
		if s.Parent >= i {
			t.Errorf("span %d %s: parent %d not recorded before it", i, s.Name, s.Parent)
		} else if s.Parent >= 0 {
			if p := tf.Spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Errorf("span %d %s [%d,%d] not inside parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	for _, l := range tf.Layers {
		if l.SelfMs < 0 || l.SelfMs > l.TotalMs+1e-9 {
			t.Errorf("layer %s: self %.3f ms of total %.3f ms", l.Name, l.SelfMs, l.TotalMs)
		}
	}
}

// TestDaemonKilledMidRunFails: operations against a dead daemon are
// counted as failed and the run is not correct (a non-zero exit).
func TestDaemonKilledMidRunFails(t *testing.T) {
	rep := quickRun(t, options{workload: "kernel-small", seconds: 1}, func(leg string, s *session) {
		if leg == "burst" {
			s.d.stop()
		}
	})
	if rep.Correct || rep.Failed == 0 || rep.FailRatio <= 0 {
		t.Errorf("correct=%v failed=%d fail_ratio=%g after the daemon was killed", rep.Correct, rep.Failed, rep.FailRatio)
	}
}
