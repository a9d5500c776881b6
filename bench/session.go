package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/octree"
	"repro/internal/service"
	"repro/internal/vec"
)

// The session is the benchmark's one measurement procedure: the whole
// pre-process → sparse-LB → in situ → steering loop on the inputs of one
// workload, against the real hemeserved binary.
//
// The end-to-end metrics come from rounds. A round walks the loop once
// with one request in flight at a time — an in-process kernel rep, a
// fresh daemon and a job run to completion, post-processing reads of
// that job, a time-to-first-frame trial, a block of short jobs — and
// rounds repeat until --seconds are spent, so every metric is sampled
// over the whole run. Each metric is the fast decile of its per-round
// samples: this host's neighbours slow everything by a quarter for
// minutes at a time and by more for moments, they never speed anything
// up, and the fast decile of samples spread over half a minute is what
// the program costs when they are quiet (README, "The statistic").
//
// The live legs (live.go) put the same daemon under concurrent load — two
// clients submitting, a stream subscriber and a viewer beside a running
// job. What they measure depends on who else runs on the host, so their
// numbers are per-layer metrics and they run in traced sessions only.
const (
	// frameReads is how many cache-miss frames a round reads from its
	// finished job, burstBlocks how many blocks of the four burst presets
	// it submits.
	frameReads  = 3
	burstBlocks = 2

	// Shares of a traced session's --seconds: rounds, the 2-rank reps
	// (lb.mlups_r2), the two-client burst and the watched job.
	tracedRoundShare = 0.25
	kernelR2Share    = 0.03
	burstShare       = 0.10
	watchShare       = 0.20
	warmupSteps      = 32 // the watched job's steps before the window opens
)

// result collects what a session observed: operation counts, named
// timing samples and named scalars. It is shared by the two client
// goroutines of a leg.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	samples   map[string][]float64
	// at holds, sample for sample, the seconds since t0 at which each
	// sample was taken (-json reports carry both).
	at     map[string][]float64
	t0     time.Time
	values map[string]float64
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, at: map[string][]float64{}, t0: time.Now(), values: map[string]float64{}}
}

// op counts one attempted operation and, when err is not nil, one
// failure (the first few are kept for the report).
func (r *result) op(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, what+": "+err.Error())
		}
	}
	return err == nil
}

func (r *result) add(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.at[name] = append(r.at[name], time.Since(r.t0).Seconds())
	r.mu.Unlock()
}

func (r *result) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *result) inc(name string, v float64) {
	r.mu.Lock()
	r.values[name] += v
	r.mu.Unlock()
}

type session struct {
	ctx     context.Context
	bin     string // hemeserved binary
	tmp     string // scratch directory inside the checkout
	w       workload
	seconds float64
	// live adds the concurrent legs and cuts the rounds to their traced
	// share; it is set for traced sessions.
	live bool
	tr   *tracer
	refs references
	rng  *rand.Rand
	res  *result
	// hook, when set, is called as each daemon-driven part starts; tests
	// use it to kill the daemon mid-run.
	hook func(leg string, s *session)

	d         *daemon
	dataDir   string
	dims      vec.I3
	rois      []vec.Box // the domain's octants, in the seed's order
	azimuth   float64   // of the next cache-miss frame; never repeats
	stateHash uint64    // of the serial run's final fields; printed, not gated
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// run executes the session. An error means the harness itself could not
// proceed (no daemon, no temp dir); failed operations are counted in
// the result instead.
func (s *session) run() error {
	defer func() {
		if s.d != nil {
			s.retire(s.d)
		}
	}()
	k, err := s.kernelStart()
	if err != nil {
		return err
	}
	s.rois = s.roiOrder()
	s.azimuth = s.rng.Float64() * 6
	budget := s.legBudget(1)
	if s.live {
		budget = s.legBudget(tracedRoundShare)
	}
	for start := time.Now(); time.Since(start) < budget && s.ctx.Err() == nil; {
		if err := s.round(k); err != nil {
			return err
		}
	}
	if !s.live && s.w.ResumeSteps == 0 {
		return nil
	}
	if err := s.startDaemon(-1); err != nil {
		return err
	}
	if s.live {
		s.enter("live")
		s.burstLeg()
		s.viewLeg()
	}
	if s.w.ResumeSteps > 0 {
		s.enter("resume")
		if err := s.resumeLeg(); err != nil {
			return err
		}
	}
	if s.dataDir != "" && s.d != nil {
		c := newClient()
		defer c.close()
		n, err := c.countJobs(s.ctx, s.d.base)
		if s.res.op("list jobs", err) {
			s.res.set("store.dir_jobs", float64(n))
		}
		s.res.set("store.dir_bytes", dirBytes(s.dataDir))
	}
	s.retire(s.d)
	if s.w.ResumeSteps > 0 {
		// The durable path must have done real work: fulls and deltas.
		written := s.res.values["scraped.hemeserved_checkpoints_written_total"]
		deltas := s.res.values["scraped.hemeserved_checkpoint_deltas_written_total"]
		var err error
		if written < 8 || deltas < 1 {
			err = fmt.Errorf("%g checkpoints written, %g of them deltas; want at least 8 and 1", written, deltas)
		}
		s.res.op("checkpoints written", err)
	}
	return nil
}

func (s *session) enter(leg string) {
	if s.hook != nil {
		s.hook(leg, s)
	}
}

func (s *session) legBudget(share float64) time.Duration {
	return time.Duration(share * s.seconds * float64(time.Second))
}

// kernelStart builds the workload's domain in-process — what hemesim
// wraps — with no viz, snapshot or checkpoint work, at 1 rank × 1 thread
// (the plain serial baseline) and at 2 ranks × 1 thread, runs the 2-rank
// reps and one serial rep, and checks the final state of each against
// the reference. It returns the serial run; every round adds a rep.
func (s *session) kernelStart() (*kernelRun, error) {
	leg := s.tr.begin("session.kernel", -1, s.tr.newOp())
	defer s.tr.end(leg)
	var runs [2]*kernelRun
	for i := range runs {
		sp := s.tr.begin("core.New", leg, 0)
		k, err := newKernelRun(s.w.Domain, i+1, 1, s.w.KernelSteps)
		s.tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.res.add("core.new_ms", k.newS*1e3)
		runs[i] = k
	}
	serial, two := runs[0], runs[1]
	s.dims = serial.sim.Dom.Dims
	budget := time.Duration(0) // two reps: enough for the comparison
	if s.live {
		budget = s.legBudget(kernelR2Share)
	}
	sp := s.tr.begin("core.Run", leg, 0)
	reps, err := two.repsFor(budget)
	s.tr.end(sp)
	for _, v := range reps {
		s.res.add("lb.mlups_r2", v)
	}
	twoRan := s.res.op("core.Run", err)
	if !s.kernelRep(serial, leg) {
		return serial, nil
	}
	key := s.w.Domain.key(s.w.KernelSteps)
	err = errors.New("no reference for " + key + " (run with -update-reference)")
	if ref, ok := s.refs[key]; ok {
		err = ref.agrees(serial.stats(), 1e-9)
	}
	s.res.op("serial run vs reference", err)
	s.stateHash = fieldHash(serial.final.Field)
	if twoRan {
		s.res.op("2-rank run vs serial", serial.stats().agrees(two.stats(), 1e-9))
	}
	return serial, nil
}

// kernelRep runs one serial rep. No daemon job is running while it does.
func (s *session) kernelRep(k *kernelRun, parent int) bool {
	sp := s.tr.begin("core.Run", parent, 0)
	runtime.GC() // keep the collector's mark workers out of the timed steps
	v, err := k.rep()
	s.tr.end(sp)
	if s.res.op("core.Run", err) {
		s.res.add("mlups", v)
	}
	return err == nil
}

// startDaemon execs hemeserved, on a fresh data dir when the workload has
// a store, and makes it the session's daemon. parent is the span it
// belongs to.
func (s *session) startDaemon(parent int) error {
	dir := ""
	if s.w.Store {
		var err error
		if dir, err = os.MkdirTemp(s.tmp, "data-"); err != nil {
			return err
		}
	}
	sp := s.tr.begin("service.boot", parent, 0)
	d, err := startDaemon(s.ctx, s.bin, dir)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	s.d, s.dataDir = d, dir
	return nil
}

// round walks the loop once with one request in flight at a time. Every
// step of it yields one sample of an end-to-end metric:
//
//	mlups            one in-process serial rep
//	setup_s          exec hemeserved → 200 on /healthz, plus submit of a
//	                 job on the workload's domain → step ≥ 1 (voxelise,
//	                 graph, partition, solver build)
//	steps_per_s      that job's steps from there to done, over the time
//	                 they took: nobody watches it, so only the solver
//	                 and, with a store, its checkpoint writer run
//	frame_latency_ms GET /frame of the finished job at a never-seen
//	                 azimuth: render + PNG + HTTP
//	data_latency_ms  GET /data on each octant of the finished job: octree
//	                 build (first query) + eight queries, per query
//	ttff_s           submit → open /stream → first frame event
//	job_latency_ms   a block of the four burst presets, one job at a
//	                 time, POST sent → terminal state seen; per job
func (s *session) round(k *kernelRun) error {
	leg := s.tr.begin("session.round", -1, s.tr.newOp())
	defer s.tr.end(leg)
	s.kernelRep(k, leg)

	if err := s.startDaemon(leg); err != nil {
		return err
	}
	d, dir := s.d, s.dataDir
	defer func() {
		s.retire(d)
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	a, b := newClient(), newClient()
	defer a.close()
	defer b.close()

	// The job, from nothing to done.
	sp := s.tr.begin("service.first_step", leg, 0)
	t0 := time.Now()
	info, err := b.submit(s.ctx, d.base, s.w.longSpec(s.w.LongSteps))
	if err == nil {
		info, err = b.waitJob(s.ctx, d.base, info.ID, func(in service.JobInfo) bool { return in.Step >= 1 })
	}
	tFirst := time.Now()
	s.tr.end(sp)
	if err == nil && info.Step < 1 {
		err = fmt.Errorf("job %s ended in state %s before its first step: %s", info.ID, info.State, info.Error)
	}
	if !s.res.op("round: job to step 1", err) {
		return nil
	}
	s.res.add("setup_s", d.bootS+tFirst.Sub(t0).Seconds())
	s.res.add("service.boot_ms", d.bootS*1e3)
	s.res.add("service.first_step_ms", ms(tFirst.Sub(t0)))
	sp = s.tr.begin("service.job_run", leg, 0)
	done, err := b.waitJob(s.ctx, d.base, info.ID, func(service.JobInfo) bool { return false })
	tDone := time.Now()
	s.tr.end(sp)
	if err == nil && (done.State != service.StateDone || done.Step != s.w.LongSteps) {
		err = fmt.Errorf("job %s: state %s step %d/%d %s", done.ID, done.State, done.Step, s.w.LongSteps, done.Error)
	}
	if !s.res.op("round: job done", err) {
		return nil
	}
	s.res.add("step_rate", float64(done.Step-info.Step)/tDone.Sub(tFirst).Seconds())

	// Post-processing reads of the finished job.
	op := s.tr.newOp()
	jobURL := d.base + "/api/v1/jobs/" + done.ID
	for i := 0; i < frameReads; i++ {
		s.timedGet(b, leg, op, "frame_latency_ms", "service.frame_miss", s.missFrameURL(done.ID), s.checkPNG)
	}
	dataStart, dataOK := time.Now(), true
	for _, r := range s.rois {
		dataOK = s.timedGet(b, leg, op, "service.data_get_ms", "service.data", dataURL(jobURL, r), checkNodes) && dataOK
	}
	if dataOK {
		s.res.add("data_latency_ms", ms(time.Since(dataStart))/float64(len(s.rois)))
	}

	s.ttffTrial(a, b, leg)

	s.enter("burst")
	for i := 0; i < burstBlocks; i++ {
		var block time.Duration
		blockOK := true
		for _, preset := range s.burstOrder(len(burstPresets)) {
			lat, ok := s.burstJob(b, leg, preset)
			block, blockOK = block+lat, blockOK && ok
		}
		if blockOK {
			s.res.add("job_latency_ms", ms(block)/float64(len(burstPresets)))
		}
	}
	return nil
}

// ttffTrial is one time-to-first-frame trial: submit a job, subscribe to
// its stream, wait for the first frame event, cancel.
func (s *session) ttffTrial(a, b *client, parent int) {
	sp := s.tr.begin("service.ttff", parent, s.tr.newOp())
	t0 := time.Now()
	info, err := b.submit(s.ctx, s.d.base, s.w.longSpec(1<<30))
	var st *sseStream
	if err == nil {
		st, err = a.openStream(s.ctx, s.streamURL(info.ID))
	}
	if err == nil {
		var ev sseEvent
		for ev.Name != "frame" && err == nil {
			ev, err = st.next()
		}
		ttff := time.Since(t0)
		if err == nil {
			err = s.checkFrameEvent(ev)
		}
		if err == nil {
			s.res.add("ttff_s", ttff.Seconds())
		}
	}
	s.tr.end(sp)
	s.res.op("time to first frame", err)
	if info.ID != "" {
		s.res.op("ttff: cancel", b.cancel(s.ctx, s.d.base, info.ID))
	}
	if st != nil {
		s.res.op("ttff: stream ends with end", awaitEnd(st))
		st.close()
	}
}

// burstJob submits one short job and polls it every millisecond until
// it is terminal. It returns the time from the POST being sent to the
// terminal state being seen, and whether the job ended done at its last
// step.
func (s *session) burstJob(c *client, parent int, preset string) (time.Duration, bool) {
	op := s.tr.newOp()
	jobSpan := s.tr.begin("service.job", parent, op)
	t0 := time.Now()
	sp := s.tr.begin("service.submit", jobSpan, op)
	info, err := c.submit(s.ctx, s.d.base, s.w.burstSpec(preset))
	s.tr.end(sp)
	s.res.add("service.submit_ms", ms(time.Since(t0)))
	if err == nil {
		sp = s.tr.begin("service.poll", jobSpan, op)
		info, err = s.pollTerminal(c, info.ID)
		s.tr.end(sp)
	}
	lat := time.Since(t0)
	s.tr.end(jobSpan)
	if err == nil && (info.State != service.StateDone || info.Step != burstSteps) {
		err = fmt.Errorf("job %s: state %s step %d/%d %s", info.ID, info.State, info.Step, burstSteps, info.Error)
	}
	if !s.res.op("burst job", err) {
		return lat, false
	}
	s.addJobPhases(info)
	return lat, true
}

// missFrameURL is a frame request no cache holds: its azimuth never
// repeats within a run.
func (s *session) missFrameURL(id string) string {
	s.azimuth += 0.0137
	return fmt.Sprintf("%s/api/v1/jobs/%s/frame?w=%d&h=%d&az=%.6f", s.d.base, id, s.w.FrameW, s.w.FrameH, s.azimuth)
}

// dataURL is a reduced-data query on one region: finest detail inside,
// three levels of context around it.
func dataURL(jobURL string, r vec.Box) string {
	return fmt.Sprintf("%s/data?min=%g,%g,%g&max=%g,%g,%g&detail=0&context=3", jobURL,
		r.Min.X, r.Min.Y, r.Min.Z, r.Max.X, r.Max.Y, r.Max.Z)
}

func checkNodes(body []byte) error {
	nodes, err := octree.DecodeNodes(body)
	if err == nil && len(nodes) == 0 {
		err = errors.New("empty node list")
	}
	return err
}

// retire reads the daemon's counters, peak memory and CPU time into the
// result, then kills it.
func (s *session) retire(d *daemon) {
	c := newClient()
	defer c.close()
	ctx, cancel := context.WithTimeout(s.ctx, 2*time.Second)
	defer cancel()
	if m, err := c.scrape(ctx, d.base); err == nil {
		for k, v := range m {
			s.res.inc("scraped."+k, v)
		}
	}
	rss, cpu := d.procStats()
	s.res.mu.Lock()
	s.res.values["proc.peak_rss_mb"] = max(s.res.values["proc.peak_rss_mb"], rss)
	s.res.values["proc.cpu_s"] += cpu
	s.res.values["proc.daemon_s"] += time.Since(d.started).Seconds()
	s.res.mu.Unlock()
	d.stop()
	if d == s.d {
		s.d = nil
	}
}

// burstOrder yields the burst leg's presets: consecutive blocks of the
// four presets, each block shuffled by the seed, so any prefix holds
// the same mix whatever the seed.
func (s *session) burstOrder(n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		for _, i := range s.rng.Perm(len(burstPresets)) {
			out = append(out, burstPresets[i])
		}
	}
	return out
}

// pollTerminal GETs the job every millisecond until it is terminal,
// timing each GET.
func (s *session) pollTerminal(c *client, id string) (service.JobInfo, error) {
	for {
		t0 := time.Now()
		info, err := c.job(s.ctx, s.d.base, id)
		s.res.add("service.poll_get_ms", ms(time.Since(t0)))
		if err != nil || info.State.Terminal() {
			return info, err
		}
		time.Sleep(time.Millisecond)
	}
}

// addJobPhases records the daemon's own view of a finished job: time
// queued (created → started) and time running (started → finished).
func (s *session) addJobPhases(info service.JobInfo) {
	created, e1 := time.Parse(time.RFC3339Nano, info.CreatedAt)
	started, e2 := time.Parse(time.RFC3339Nano, info.StartedAt)
	finished, e3 := time.Parse(time.RFC3339Nano, info.FinishedAt)
	if e1 != nil || e2 != nil || e3 != nil {
		return
	}
	s.res.add("service.queue_wait_ms", ms(started.Sub(created)))
	s.res.add("service.run_ms", ms(finished.Sub(started)))
}

func (s *session) streamURL(id string) string {
	return fmt.Sprintf("%s/api/v1/jobs/%s/stream?w=%d&h=%d", s.d.base, id, s.w.FrameW, s.w.FrameH)
}

// checkPNG decodes a PNG and compares its size with the one asked for.
func (s *session) checkPNG(data []byte) error {
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("undecodable PNG: %w", err)
	}
	if b := img.Bounds(); b.Dx() != s.w.FrameW || b.Dy() != s.w.FrameH {
		return fmt.Errorf("PNG is %dx%d, asked for %dx%d", b.Dx(), b.Dy(), s.w.FrameW, s.w.FrameH)
	}
	return nil
}

// checkFrameEvent decodes one SSE frame event down to its pixels.
func (s *session) checkFrameEvent(ev sseEvent) error {
	var f struct {
		PNG string `json:"png_b64"`
	}
	if err := json.Unmarshal(ev.Data, &f); err != nil {
		return fmt.Errorf("frame event: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(f.PNG)
	if err != nil {
		return fmt.Errorf("frame event base64: %w", err)
	}
	return s.checkPNG(raw)
}

// awaitEnd reads the stream until its "end" event; any other way for
// the stream to finish is an error.
func awaitEnd(st *sseStream) error {
	for {
		ev, err := st.next()
		if err != nil {
			return fmt.Errorf("stream closed without an end event: %w", err)
		}
		if ev.Name == "end" {
			return nil
		}
	}
}

// timedGet issues one GET of the viewer cycle, checks the body and, when
// both went well, records the latency under sample.
func (s *session) timedGet(c *client, parent, op int, sample, spanName, url string, check func([]byte) error) bool {
	return s.timedDo(c, parent, op, sample, spanName, http.MethodGet, url, nil, check)
}

func (s *session) timedDo(c *client, parent, op int, sample, spanName, method, url string, body []byte, check func([]byte) error) bool {
	sp := s.tr.begin(spanName, parent, op)
	t0 := time.Now()
	code, reply, err := c.do(s.ctx, method, url, body)
	lat := time.Since(t0)
	s.tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(reply))
	}
	if err == nil {
		err = check(reply)
	}
	if !s.res.op(spanName, err) {
		return false
	}
	s.res.add(sample, ms(lat))
	return true
}

// roiOrder returns the eight octants of the domain's bounding box in a
// seed-shuffled order: every run queries the same regions equally
// often, in an order the seed picks.
func (s *session) roiOrder() []vec.Box {
	boxes := octants(s.dims.F())
	s.rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
	return boxes
}

// octants splits the bounding box [0, dims) into its eight halves-per-axis.
func octants(dims vec.V3) []vec.Box {
	h := dims.Mul(0.5)
	boxes := make([]vec.Box, 0, 8)
	for i := 0; i < 8; i++ {
		lo := vec.New(float64(i&1)*h.X, float64(i>>1&1)*h.Y, float64(i>>2&1)*h.Z)
		boxes = append(boxes, vec.NewBox(lo, lo.Add(h)))
	}
	return boxes
}

// resumeLeg is the durability check: two concurrent durable jobs run
// until each has a checkpoint on disk, the daemon is killed with SIGKILL
// and restarted on the same data dir, and both jobs must come back
// running from a checkpoint, finish, and end in fields that agree with
// the serial in-process reference (read through /data at the finest
// level, whose wire format is float32 — hence the 1e-5 tolerance).
func (s *session) resumeLeg() error {
	leg := s.tr.begin("session.resume", -1, s.tr.newOp())
	defer s.tr.end(leg)
	c := newClient()
	defer c.close()
	steps := s.w.ResumeSteps
	var ids []string
	for i := 0; i < 2; i++ {
		info, err := c.submit(s.ctx, s.d.base, s.w.longSpec(steps))
		if s.res.op("resume: submit", err) {
			ids = append(ids, info.ID)
		}
	}
	// The daemon's write-budget governor decides which cadence points
	// are written, so the step counter does not say when a checkpoint
	// exists; the job's flight recorder does.
	for _, id := range ids {
		s.res.op("resume: checkpoint written before the kill", c.waitCheckpoint(s.ctx, s.d.base, id))
	}
	dir := s.dataDir
	s.retire(s.d) // SIGKILL
	sp := s.tr.begin("store.recover", leg, 0)
	t0 := time.Now()
	d, err := startDaemon(s.ctx, s.bin, dir)
	if err != nil {
		s.tr.end(sp)
		return fmt.Errorf("restart on %s: %w", dir, err)
	}
	s.d = d
	for _, id := range ids {
		info, err := c.waitJob(s.ctx, d.base, id, func(in service.JobInfo) bool {
			return in.State == service.StateRunning && in.ResumedFromStep > 0
		})
		if err == nil && info.ResumedFromStep == 0 {
			err = fmt.Errorf("job %s is %s with resumed_from_step 0", id, info.State)
		}
		s.res.op("resume: running from a checkpoint", err)
	}
	s.res.set("store.recover_ms", ms(time.Since(t0)))
	s.tr.end(sp)
	ref, haveRef := s.refs[s.w.Domain.key(steps)]
	for _, id := range ids {
		info, err := c.waitJob(s.ctx, d.base, id, func(service.JobInfo) bool { return false })
		if err == nil && (info.State != service.StateDone || info.Step != steps) {
			err = fmt.Errorf("job %s: state %s step %d/%d %s", id, info.State, info.Step, steps, info.Error)
		}
		if !s.res.op("resume: job done", err) {
			continue
		}
		code, body, err := c.get(s.ctx, d.base+"/api/v1/jobs/"+id+"/data?detail=0&context=0")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		var nodes []*octree.Node
		if err == nil {
			nodes, err = octree.DecodeNodes(body)
		}
		if err == nil {
			var rho, ux, uy, uz []float64
			for _, n := range nodes {
				if n.Level != 0 || n.Count != 1 {
					err = fmt.Errorf("finest-level query returned a level-%d node covering %d sites", n.Level, n.Count)
					break
				}
				rho, ux, uy, uz = append(rho, n.MeanRho), append(ux, n.MeanU.X), append(uy, n.MeanU.Y), append(uz, n.MeanU.Z)
			}
			if err == nil && !haveRef {
				err = errors.New("no reference for " + s.w.Domain.key(steps))
			}
			if err == nil {
				err = ref.agrees(statsOf(rho, ux, uy, uz, steps), 1e-5)
			}
		}
		s.res.op("resume: final fields vs reference", err)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil // a file vanishing mid-walk (compaction) is not an error here
	})
	return float64(total)
}
