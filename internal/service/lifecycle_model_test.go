package service

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/geometry"
	"repro/internal/leaktest"
	"repro/internal/service/store"
	"repro/internal/steering"
)

var (
	lifecycleSeed = flag.Int64("lifecycle-seed", 0, "run TestLifecycleModel at this one seed only (replays a failure)")
	lifecycleFor  = flag.Duration("lifecycle-for", 0, "TestLifecycleModel: after the fixed seeds, run fresh seeds for this long")
)

// The model's manager: one or two workers, a small queue and quota so
// both rejections come up, no checkpoints (the model is about states,
// not steps).
const (
	modelQueueCap  = 3
	modelMaxActive = 6
)

var (
	modelForever = JobSpec{Preset: "pipe", Steps: 2_000_000, SnapshotEvery: -1}
	modelShort   = JobSpec{Preset: "pipe", Steps: 40, SnapshotEvery: -1}
)

// refJob is the reference's view of one job.
type refJob struct {
	id    string
	state JobState
	// park marks a recovered paused job still queued: its dispatch
	// ends paused, and a restart keeps it paused.
	park  bool
	steer map[int]float64
}

// lifecycleRef is the reference lifecycle, written apart from next so
// a change to the table cannot also change what it is checked against:
// a FIFO queue, workers slots held by running jobs, a tenant quota.
type lifecycleRef struct {
	workers int
	free    int
	queue   []*refJob
	jobs    map[string]*refJob
}

// ids returns the jobs' ids in order (job-id order is submit order).
func (r *lifecycleRef) ids() []string {
	ids := make([]string, 0, len(r.jobs))
	for id := range r.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (r *lifecycleRef) active() int {
	n := 0
	for _, j := range r.jobs {
		if !j.state.Terminal() {
			n++
		}
	}
	return n
}

// settle dispatches queued jobs in order while slots are free; a
// parking job gives its slot straight back.
func (r *lifecycleRef) settle() {
	for len(r.queue) > 0 && r.free > 0 {
		j := r.queue[0]
		r.queue = r.queue[1:]
		if j.park {
			j.state, j.park = StatePaused, false
			continue
		}
		j.state = StateRunning
		r.free--
	}
}

// live returns the error an op on a job in state s gets when it needs
// the job dispatched and not over.
func live(s JobState) error {
	switch {
	case s == StateQueued:
		return ErrNotRunning
	case s.Terminal():
		return ErrFinished
	}
	return nil
}

// op applies one user op to the reference and returns the error the
// manager must answer.
func (r *lifecycleRef) op(kind string, j *refJob, iolet int, density float64) error {
	defer r.settle()
	switch kind {
	case "pause":
		if err := live(j.state); err != nil {
			return err
		}
		if j.state == StateRunning {
			j.state = StatePaused
			r.free++
		}
	case "resume":
		if err := live(j.state); err != nil {
			return err
		}
		if j.state == StatePaused {
			if r.free == 0 {
				return ErrResumeAborted
			}
			j.state = StateRunning
			r.free--
		}
	case "cancel":
		switch {
		case j.state.Terminal():
			return ErrFinished
		case j.state == StateRunning:
			r.free++
		case j.state == StateQueued:
			r.queue = slices.DeleteFunc(r.queue, func(q *refJob) bool { return q == j })
		}
		j.state, j.park = StateCancelled, false
	case "steer":
		if err := live(j.state); err != nil {
			return err
		}
		j.steer[iolet] = density
	}
	return nil
}

// submit is the admission decision for a new job.
func (r *lifecycleRef) submit() error {
	switch {
	case r.active() >= modelMaxActive:
		return ErrQuotaExceeded
	case len(r.queue) >= modelQueueCap:
		return ErrQueueFull
	}
	return nil
}

// reboot is a graceful restart: terminal stays terminal, paused stays
// paused (after its dispatch), everything else comes back queued, in
// job-id order.
func (r *lifecycleRef) reboot() {
	r.free, r.queue = r.workers, nil
	for _, id := range r.ids() {
		j := r.jobs[id]
		if j.state.Terminal() {
			continue
		}
		j.park = j.park || j.state == StatePaused
		j.state = StateQueued
		r.queue = append(r.queue, j)
	}
	r.settle()
}

// image is what a job's record brings back on a restart: its terminal
// state, paused, or queued.
func image(state JobState, paused bool) JobState {
	switch {
	case state.Terminal():
		return state
	case paused || state == StatePaused:
		return StatePaused
	}
	return StateQueued
}

// lifecycleHarness drives a real Manager beside the reference.
type lifecycleHarness struct {
	seed    int64
	fsys    *faultfs.Mem
	opts    Options
	m       *Manager
	ref     *lifecycleRef
	ended   map[string]JobState         // first terminal state seen
	domains map[*geometry.Domain]uint64 // census hash when first seen
	log     []string
}

func (h *lifecycleHarness) boot() error {
	st, err := store.OpenFS(h.fsys, "data")
	if err != nil {
		return err
	}
	h.opts.Store = st
	h.m = NewManagerOpts(h.opts)
	return nil
}

// within runs f, failing the sequence if it does not return: a
// blocked op is a lifecycle bug, not a slow test.
func within(what string, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		return fmt.Errorf("%s did not return", what)
	}
}

func (h *lifecycleHarness) job(id string) *Job {
	j, err := h.m.Get(id)
	if err != nil {
		panic(fmt.Sprintf("model job %s missing from the manager", id))
	}
	return j
}

// userOp runs one user op on both sides and compares the answers.
func (h *lifecycleHarness) userOp(rng *rand.Rand) error {
	kind := []string{"submit", "submit", "pause", "pause", "resume", "resume", "cancel", "steer"}[rng.Intn(8)]
	if kind == "submit" || len(h.ref.jobs) == 0 {
		return h.submit(rng)
	}
	ids := h.ref.ids()
	rj := h.ref.jobs[ids[rng.Intn(len(ids))]]
	iolet, density := rng.Intn(2), 1+float64(rng.Intn(50))/1000
	h.log = append(h.log, fmt.Sprintf("%s %s(%s)", kind, rj.id, rj.state))
	before := rj.state
	want := h.ref.op(kind, rj, iolet, density)
	j := h.job(rj.id)
	got := within(kind, func() error {
		switch kind {
		case "pause":
			return h.m.Pause(j)
		case "resume":
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			return h.m.Resume(ctx, j)
		case "cancel":
			return h.m.Cancel(j)
		}
		return h.m.Steer(j, steering.ClientMsg{Op: steering.OpSetIolet, Iolet: iolet, Density: density})
	})
	if !sameErr(got, want) {
		return fmt.Errorf("%s of %s: got %v, want %v", kind, rj.id, got, want)
	}
	// An acknowledged pause, resume, steer or cancel of a queued job is
	// in the journal when the call returns (a running job's cancel is
	// journaled by its run as it ends).
	if got == nil && (kind != "cancel" || before == StateQueued) && !h.m.StoreDegraded() {
		if bad := h.journalMismatch(rj.id); bad != "" {
			return fmt.Errorf("%s of %s acknowledged before it was journaled: %s", kind, rj.id, bad)
		}
	}
	return nil
}

func (h *lifecycleHarness) submit(rng *rand.Rand) error {
	want := h.ref.submit()
	// A short job only when it dispatches at once: it is waited on to
	// done, so the reference never sees it part-way.
	spec := modelForever
	if want == nil && len(h.ref.queue) == 0 && h.ref.free > 0 && rng.Intn(3) == 0 {
		spec = modelShort
	}
	var j *Job
	got := within("submit", func() (err error) {
		j, err = h.m.Submit(spec)
		return err
	})
	h.log = append(h.log, fmt.Sprintf("submit %d steps: %v", spec.Steps, got))
	if !sameErr(got, want) {
		return fmt.Errorf("submit: got %v, want %v", got, want)
	}
	if got != nil {
		return nil
	}
	rj := &refJob{id: j.ID, state: StateQueued, steer: map[int]float64{}}
	h.ref.jobs[j.ID] = rj
	h.ref.queue = append(h.ref.queue, rj)
	h.ref.settle()
	if spec.Steps == modelShort.Steps {
		rj.state = StateDone
		h.ref.free++
		h.ref.settle()
	}
	return nil
}

func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// restart closes the manager, reopens the store and boots a new one.
func (h *lifecycleHarness) restart() error {
	h.log = append(h.log, "shutdown + recover")
	if err := h.checkDomains(); err != nil {
		return err
	}
	if err := within("Close", func() error { h.m.Close(); return nil }); err != nil {
		return err
	}
	h.ref.reboot()
	return h.boot()
}

// degrade fills the disk, runs one user op (its journal write trips
// degraded mode, if it writes), frees the disk and waits for the
// probe's restore.
func (h *lifecycleHarness) degrade(rng *rand.Rand) error {
	h.log = append(h.log, "disk full")
	h.fsys.SetFull(true)
	err := h.userOp(rng)
	h.fsys.SetFull(false)
	h.log = append(h.log, "disk freed")
	if err != nil {
		return err
	}
	return h.await("store restored", func() string {
		if h.m.StoreDegraded() {
			return "still degraded"
		}
		return ""
	})
}

// await polls cond until it reports nothing wrong.
func (h *lifecycleHarness) await(what string, cond func() string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		bad := cond()
		if bad == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %s", what, bad)
		}
		time.Sleep(time.Millisecond)
	}
}

// check waits for the manager to quiesce into the reference's image
// and checks the invariants.
func (h *lifecycleHarness) check() error {
	if err := h.await("quiesce", h.mismatch); err != nil {
		return err
	}
	if !h.m.StoreDegraded() {
		if err := h.await("journal", func() string { return h.journalMismatch() }); err != nil {
			return err
		}
	}
	key := modelForever.domainKey()
	h.m.domains.mu.Lock()
	if e := h.m.domains.entries[key]; e != nil && e.el != nil {
		if _, seen := h.domains[e.val]; !seen {
			_, h.domains[e.val] = leaktest.Census(e.val)
		}
	}
	h.m.domains.mu.Unlock()
	return nil
}

// mismatch describes how the manager differs from the reference ("" =
// it agrees).
func (h *lifecycleHarness) mismatch() string {
	var bad []string
	running, queued := 0, []string{}
	for _, id := range h.ref.ids() {
		rj := h.ref.jobs[id]
		j := h.job(id)
		j.mu.Lock()
		st, sites, steer := j.state, j.numSites, steerMap(j.steer.Iolets)
		j.mu.Unlock()
		if st != rj.state {
			bad = append(bad, fmt.Sprintf("%s is %s, want %s", id, st, rj.state))
		}
		if (st == StateRunning || st == StatePaused) && sites == 0 {
			bad = append(bad, id+" is still setting up")
		}
		if was, ok := h.ended[id]; ok && st != was {
			bad = append(bad, fmt.Sprintf("%s left terminal state %s for %s", id, was, st))
		} else if st.Terminal() {
			h.ended[id] = st
		}
		if !maps.Equal(steer, rj.steer) {
			bad = append(bad, fmt.Sprintf("%s steer %v, want %v", id, steer, rj.steer))
		}
		if rj.state == StateRunning {
			running++
		}
		if rj.state == StateQueued {
			queued = append(queued, id)
		}
	}
	h.m.mu.Lock()
	inQueue := make([]string, len(h.m.queue))
	for i, j := range h.m.queue {
		inQueue[i] = j.ID
	}
	queuedLen := h.m.queuedLen
	h.m.mu.Unlock()
	if free := len(h.m.slots); free+running != h.ref.workers {
		bad = append(bad, fmt.Sprintf("%d slots free + %d running != %d workers", free, running, h.ref.workers))
	}
	var want []string
	for _, j := range h.ref.queue {
		want = append(want, j.id)
	}
	if queuedLen != len(queued) || !slices.Equal(inQueue, want) {
		bad = append(bad, fmt.Sprintf("queue %v (queuedLen %d), want %v", inQueue, queuedLen, want))
	}
	h.m.tenants.mu.Lock()
	active := h.m.tenants.byName[AnonymousTenant].active
	h.m.tenants.mu.Unlock()
	if active != h.ref.active() {
		bad = append(bad, fmt.Sprintf("tenant charged for %d jobs, want %d", active, h.ref.active()))
	}
	return strings.Join(bad, "; ")
}

// journalMismatch compares what the journal would bring back for the
// given jobs (all when none are given) with the reference's reboot
// image.
func (h *lifecycleHarness) journalMismatch(ids ...string) string {
	recs := store.JournalSnapshot(h.fsys, "data")
	if len(ids) == 0 {
		ids = h.ref.ids()
	}
	var bad []string
	for _, id := range ids {
		rj := h.ref.jobs[id]
		rec, ok := recs[id]
		if !ok {
			bad = append(bad, id+" not journaled")
			continue
		}
		if got, want := image(JobState(rec.State), rec.Paused), image(rj.state, rj.park); got != want {
			bad = append(bad, fmt.Sprintf("journal brings %s back %s, want %s", id, got, want))
		}
		var steer []store.IoletOver
		if rec.Steer != nil {
			steer = rec.Steer.Iolets
		}
		if got := steerMap(steer); !maps.Equal(got, rj.steer) {
			bad = append(bad, fmt.Sprintf("journaled steer of %s %v, want %v", id, got, rj.steer))
		}
	}
	return strings.Join(bad, "; ")
}

func steerMap(ovs []store.IoletOver) map[int]float64 {
	out := map[int]float64{}
	for _, ov := range ovs {
		out[ov.Iolet] = ov.Density
	}
	return out
}

// checkDomains re-hashes every Domain the sequence's jobs shared: the
// jobs stepping on one must not have written to it.
func (h *lifecycleHarness) checkDomains() error {
	for dom, want := range h.domains {
		if _, got := leaktest.Census(dom); got != want {
			return fmt.Errorf("shared domain's census hash moved %x -> %x", want, got)
		}
	}
	return nil
}

// lifecycleModelRun plays one seeded sequence of ops against a Manager
// on an in-memory store and the reference beside it.
func lifecycleModelRun(seed int64) (err error) {
	rng := rand.New(rand.NewSource(seed))
	workers := 1 + int(seed%2)
	h := &lifecycleHarness{
		seed: seed,
		fsys: faultfs.NewMem(seed),
		opts: Options{
			Workers: workers, QueueCap: modelQueueCap, CheckpointEvery: -1,
			StoreProbeEvery: time.Millisecond,
			TenantDefaults:  TenantLimits{MaxActive: modelMaxActive},
		},
		ref:     &lifecycleRef{workers: workers, free: workers, jobs: map[string]*refJob{}},
		ended:   map[string]JobState{},
		domains: map[*geometry.Domain]uint64{},
	}
	if err := h.boot(); err != nil {
		return err
	}
	hung := false
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\nops: %s", err, strings.Join(h.log, ", "))
		}
		if !hung {
			h.m.Close()
		}
	}()
	for i := 0; i < 24; i++ {
		switch r := rng.Intn(20); {
		case r < 15:
			err = h.userOp(rng)
		case r < 17:
			err = h.restart()
		case r < 19:
			err = h.degrade(rng)
		default:
			h.log = append(h.log, "memory shed")
			h.m.domains.purge()
		}
		if err == nil {
			err = h.check()
		}
		if err != nil {
			hung = strings.Contains(err.Error(), "did not return")
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return h.checkDomains()
}

// TestLifecycleModel checks the manager's job lifecycle against an
// independent reference over seeded random sequences of submits,
// pauses, resumes, cancels, steers, graceful restarts, disk-full
// episodes and memory sheds. After every op settles: each job's state,
// the worker slots, the queue and the tenant charge agree with the
// reference; terminal states never change; the journal brings back
// what a restart must; shared domains stay unwritten; nothing leaks.
// -lifecycle-for adds fresh seeds.
func TestLifecycleModel(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	first, last := int64(1), int64(6)
	if *lifecycleSeed != 0 {
		first, last = *lifecycleSeed, *lifecycleSeed
	}
	run := func(seed int64) {
		if err := lifecycleModelRun(seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/service -run TestLifecycleModel -lifecycle-seed %d", seed, err, seed)
		}
	}
	for seed := first; seed <= last; seed++ {
		run(seed)
	}
	if *lifecycleFor <= 0 || *lifecycleSeed != 0 {
		return
	}
	start := time.Now()
	seed := start.UnixNano()
	for ; time.Since(start) < *lifecycleFor; seed++ {
		run(seed)
	}
	t.Logf("%d fresh seeds from %d passed", seed-start.UnixNano(), start.UnixNano())
}
