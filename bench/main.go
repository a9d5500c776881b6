// Command hemebench is the repository's benchmark: one session of the
// pre-process → sparse-LB → in situ → steering loop per run, on the
// inputs of a named workload, against the real hemeserved binary.
//
//	hemebench run --workload NAME|all --seed N --seconds S --trace 0|1 [-json FILE]
//	hemebench run -update-reference
//	hemebench verify [-sets 2]
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics from a layer replay plus a traced session, and
// writes the spans to trace-<workload>.json. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: hemebench run|verify [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q (want run or verify)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hemebench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after a report with failed operations has
// been printed: the result line is there, the exit code is non-zero.
var errIncorrect = errors.New("failed operations or checks")

// options are the inputs of one run.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	jsonOut  string
	// hook is handed to the session (tests only).
	hook func(leg string, s *session)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var o options
	var trace int
	var update bool
	fs.StringVar(&o.root, "root", "", "repository checkout (default: found from the working directory)")
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long a run measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and trace-<workload>.json")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes (domains 8x smaller)")
	fs.StringVar(&o.jsonOut, "json", "", "also write the full report (meta, metrics, failures) to this file")
	fs.BoolVar(&update, "update-reference", false, "regenerate testdata/reference.json from the serial run and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace != 0
	var err error
	if o.root, err = findRoot(o.root); err != nil {
		return err
	}
	if update {
		all := append([]workload(nil), workloads...)
		for _, w := range workloads {
			all = append(all, w.quick())
		}
		return updateReferences(o.root, all)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	var reports []*report
	incorrect := false
	for _, name := range names {
		o.workload = name
		rep, err := runWorkload(context.Background(), o)
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		rep.print(os.Stdout)
		reports = append(reports, rep)
		incorrect = incorrect || !rep.Correct
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, rep := range reports {
		fmt.Println(rep.resultLine())
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// findRoot returns the checkout that holds go.mod, cmd/hemeserved and
// bench/: the given directory, or the working directory or its parent
// (go run -C bench starts the program inside bench/).
func findRoot(given string) (string, error) {
	candidates := []string{given}
	if given == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		abs, err := filepath.Abs(c)
		if err != nil {
			return "", err
		}
		if _, err := os.Stat(filepath.Join(abs, "cmd", "hemeserved", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(abs, "bench", "go.mod")); err == nil {
				return abs, nil
			}
		}
	}
	return "", errors.New("no checkout with cmd/hemeserved and bench/ here; pass -root")
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// meta describes the machine and the run, so a number can be read
// against what produced it.
type meta struct {
	Commit     string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	L2         string  `json:"l2_size"`
	L3         string  `json:"l3_size"`
	DataDirFS  string  `json:"data_dir_fs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	WallS      float64 `json:"wall_s"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Trace     bool                   `json:"trace"`
	Meta      meta                   `json:"meta"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Unresolved names metrics whose requested parallelism exceeds
	// GOMAXPROCS: the number is emitted, but it measures time slicing.
	Unresolved []string `json:"unresolved,omitempty"`
	// Notes carries budget verdicts such as UNKNOWN COST.
	Notes     []string `json:"notes,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
	// Samples are the raw timings behind the metrics and SampleTimes the
	// seconds into the run at which each was taken (-json reports only),
	// for judging a statistic's steadiness offline.
	Samples     map[string][]float64 `json:"samples,omitempty"`
	SampleTimes map[string][]float64 `json:"sample_times,omitempty"`
	Claim       *string              `json:"claim"` // always null: the benchmark claims no gain
	defs        []metricDef
}

// resultLine is the contract's last line of standard output.
func (r *report) resultLine() string {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // a map of floats and strings always encodes
	}
	return string(line)
}

func (r *report) print(w *os.File) {
	kind := "end-to-end (tracing off)"
	if r.Trace {
		kind = "per-layer (layer replay + traced session)"
	}
	fmt.Fprintf(w, "== %s: %s, seed %d, %.0f s, wall %.1f s\n", r.Workload, kind, r.Meta.Seed, r.Meta.Seconds, r.Meta.WallS)
	fmt.Fprintf(w, "   %s\n", r.Why)
	fmt.Fprintf(w, "   commit %s, %s, nproc %d, GOMAXPROCS %d, L2 %s, L3 %s, data dir on %s\n",
		r.Meta.Commit, r.Meta.GoVersion, r.Meta.NumCPU, r.Meta.GOMAXPROCS, r.Meta.L2, r.Meta.L3, r.Meta.DataDirFS)
	for _, d := range r.defs {
		arrow := "↑"
		if d.Better == "lower" {
			arrow = "↓"
		}
		flag := ""
		for _, u := range r.Unresolved {
			if u == d.Name {
				flag = "  UNRESOLVED (needs more CPUs than GOMAXPROCS)"
			}
		}
		fmt.Fprintf(w, "   %-36s %14.6g %-6s %s%s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, arrow, flag)
	}
	fmt.Fprintf(w, "   operations %d, failed %d, fail_ratio %.4g\n", r.Attempted, r.Failed, r.FailRatio)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   spans written to %s\n", r.TraceFile)
	}
}

// runWorkload runs one session (and, traced, the layer replay before it)
// and assembles the report.
func runWorkload(ctx context.Context, o options) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.quick {
		w = w.quick()
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %g", o.seconds)
	}
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	start := time.Now()
	out := filepath.Join(o.root, ".bench_build")
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	run, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(run)
	refs, err := loadReferences(o.root)
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon(o.root, out)
	if err != nil {
		return nil, err
	}

	rep := &report{Workload: w.Name, Why: w.Why, Trace: o.trace, Metrics: map[string]metricValue{}}
	var tr *tracer
	layer := map[string]float64{}
	if o.trace {
		tr = newTracer()
		rp := &replay{w: w, tr: tr, tmp: run, seed: o.seed, out: layer,
			stepBudget: time.Duration(o.seconds / 30 * float64(time.Second))}
		if err := rp.run(); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
	}
	s := &session{
		ctx: ctx, bin: bin, tmp: run, w: w, seconds: o.seconds, live: o.trace, tr: tr,
		refs: refs, rng: rand.New(rand.NewSource(o.seed)), res: newResult(), hook: o.hook,
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	if o.trace {
		rep.defs = perLayer
		s.perLayer(layer, rep)
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metricValue{layer[d.Name], d.Unit}
		}
		rep.TraceFile = filepath.Join(out, "trace-"+w.Name+".json")
		if err := tr.write(rep.TraceFile, w.Name, o.seed); err != nil {
			return nil, err
		}
	} else {
		rep.defs = endToEnd
		e2e := s.endToEnd()
		for _, d := range endToEnd {
			v, ok := e2e[d.Name]
			if !ok || v <= 0 {
				s.res.op("metric "+d.Name, errors.New("not measured"))
			}
			rep.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("lb.state_hash %016x (serial run, %d steps)", s.stateHash, w.KernelSteps))
	if runtime.GOMAXPROCS(0) < 2 {
		rep.Unresolved = []string{"lb.mlups_r2", "lb.t2_speedup", "lb.t2_speedup_min", "lb.t2_speedup_max", "lb.dist_step_ns_per_site", "lb.r2_efficiency"}
	}
	rep.Attempted, rep.Failed, rep.Failures = s.res.attempted, s.res.failed, s.res.failures
	if o.jsonOut != "" {
		rep.Samples, rep.SampleTimes = s.res.samples, s.res.at
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if rep.Attempted > 0 {
		rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Meta = collectMeta(o, tmp, time.Since(start).Seconds())
	return rep, nil
}

// fast is the fast decile of a metric's samples: the 10th percentile of
// times, the 90th of rates.
func fast(xs []float64, higher bool) float64 {
	if higher {
		return percentile(xs, 90)
	}
	return percentile(xs, 10)
}

// endToEnd folds the rounds' samples into the end-to-end metrics, each
// the fast decile of its samples (session.go says why).
func (s *session) endToEnd() map[string]float64 {
	r := s.res
	return map[string]float64{
		"setup_s":          fast(r.samples["setup_s"], false),
		"mlups":            fast(r.samples["mlups"], true),
		"steps_per_s":      fast(r.samples["step_rate"], true),
		"job_latency_ms":   fast(r.samples["job_latency_ms"], false),
		"ttff_s":           fast(r.samples["ttff_s"], false),
		"frame_latency_ms": fast(r.samples["frame_latency_ms"], false),
		"data_latency_ms":  fast(r.samples["data_latency_ms"], false),
	}
}

// perSecond turns a typical interval into a rate (0 for no interval).
func perSecond(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	return 1 / interval
}

// perLayer adds to layer (the replay's numbers) what the traced session
// observed from the client side, scraped from the daemon, and the three
// budget closures.
func (s *session) perLayer(layer map[string]float64, rep *report) {
	r := s.res
	for _, name := range []string{"service.boot_ms", "service.first_step_ms", "service.submit_ms", "service.poll_get_ms",
		"service.queue_wait_ms", "service.run_ms", "service.cache_hit_ms", "service.sse_frame_bytes"} {
		layer[name] = median(r.samples[name])
	}
	// The typical values behind the end-to-end fast deciles, and what the
	// live legs saw under concurrent load.
	layer["core.mlups_p50"] = median(r.samples["mlups"])
	layer["service.job_latency_p50_ms"] = median(r.samples["job_latency_ms"])
	layer["service.frame_latency_p50_ms"] = median(r.samples["frame_latency_ms"])
	layer["service.live_jobs_per_s"] = r.values["live.jobs_per_s"]
	layer["service.live_job_latency_p50_ms"] = median(r.samples["live.job_latency_ms"])
	layer["service.live_job_latency_p95_ms"] = percentile(r.samples["live.job_latency_ms"], 95)
	layer["service.live_job_latency_p99_ms"] = percentile(r.samples["live.job_latency_ms"], 99)
	layer["service.live_steps_per_s"] = median(r.samples["live.step_rate"])
	layer["service.live_frames_per_s"] = perSecond(median(r.samples["live.frame_interval_s"]))
	layer["service.live_frame_latency_p50_ms"] = median(r.samples["live.frame_latency_ms"])
	layer["service.live_frame_latency_p90_ms"] = percentile(r.samples["live.frame_latency_ms"], 90)
	layer["service.live_data_latency_p50_ms"] = median(r.samples["live.data_latency_ms"])
	layer["service.live_steer_rtt_p50_ms"] = median(r.samples["live.steer_rtt_ms"])
	sc := func(name string) float64 { return r.values["scraped.hemeserved_"+name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layer["service.cache_hit_ratio"] = ratio(sc("frame_cache_hits_total"), sc("frame_cache_hits_total")+sc("frame_cache_misses_total"))
	delivered := sc("frames_streamed_total") + float64(len(r.samples["frame_latency_ms"])+len(r.samples["live.frame_latency_ms"])+len(r.samples["service.cache_hit_ms"]))
	layer["service.renders_per_frame"] = ratio(sc("renders_total"), delivered)
	layer["service.snapshots_published"] = sc("snapshots_total")
	layer["service.snapshots_skipped"] = sc("snapshots_skipped_total")
	layer["store.recover_ms"] = r.values["store.recover_ms"]
	layer["store.group_commit_mean_batch"] = ratio(sc("journal_group_commit_records_total"), sc("journal_group_commits_total"))
	layer["store.checkpoints_written"] = sc("checkpoints_written_total")
	layer["store.deltas_written"] = sc("checkpoint_deltas_written_total")
	layer["store.checkpoint_bytes"] = sc("checkpoint_bytes_total")
	layer["store.checkpoints_coalesced"] = sc("checkpoints_coalesced_total")
	layer["store.checkpoints_skipped_budget"] = sc("checkpoints_skipped_budget_total")
	layer["store.bytes_per_job"] = ratio(r.values["store.dir_bytes"], r.values["store.dir_jobs"])
	layer["proc.peak_rss_mb"] = r.values["proc.peak_rss_mb"]
	layer["proc.cpu_s"] = r.values["proc.cpu_s"]
	layer["proc.cpu_util"] = ratio(r.values["proc.cpu_s"], r.values["proc.daemon_s"])
	layer["lb.mlups_r2"] = median(r.samples["lb.mlups_r2"])
	layer["lb.r2_efficiency"] = ratio(layer["lb.mlups_r2"], 2*layer["core.mlups_p50"])

	sites := layer["geometry.sites"]
	stepMs := layer["lb.dist1_step_ns_per_site"] * sites / 1e6
	budget := func(name string, parts, whole float64) {
		pct := 100 * ratio(parts, whole)
		layer[name] = pct
		if pct < 75 || pct > 125 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("UNKNOWN COST: %s = %.0f%% (layers %.3f ms of %.3f ms measured)", name, pct, parts, whole))
		}
	}
	// One solver step: the replayed kernel plus core's loop around it,
	// against the step time of the median serial rep (the replay is one
	// stretch of typical host time, not the host at its quietest).
	budget("budget.step_closure_pct",
		stepMs+layer["core.loop_overhead_ns_per_step"]/1e6,
		ratio(sites/1e3, layer["core.mlups_p50"]))
	// One burst job of a round along its blocking path: submit round trip
	// (journal commit inside when the store is on), queue wait, the job
	// itself as core runs it, and half the 1 ms pause between polls until
	// the client notices.
	budget("budget.job_closure_pct",
		layer["service.submit_ms"]+layer["service.queue_wait_ms"]+layer["core.burst_job_ms"]+0.5,
		layer["service.job_latency_p50_ms"])
	// One cache-miss frame of a finished job: render, PNG and an HTTP
	// round trip (priced by the burst jobs' GET).
	budget("budget.frame_closure_pct",
		layer["insitu.render_ms"]+layer["render.png_ms"]+layer["service.poll_get_ms"],
		layer["service.frame_latency_p50_ms"])
}

func collectMeta(o options, dataDir string, wall float64) meta {
	m := meta{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, WallS: wall,
		Commit: "unknown", L2: sysCache(2), L3: sysCache(3), DataDirFS: fsType(dataDir),
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = o.root
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func sysCache(index int) string {
	data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", index))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// fsType names the filesystem dir lives on: the type of the longest
// mount point in /proc/mounts that prefixes it.
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
