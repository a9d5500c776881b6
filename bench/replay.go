package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/insitu"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/render"
	"repro/internal/service/store"
	"repro/internal/vec"
)

// replay is the outside-in layer trace: it calls each layer's public
// functions directly, at the sizes the workload uses them with, under a
// span per call, and reports the median wall per call. The numbers are
// per-layer metrics only; end-to-end metrics never come from here.
type replay struct {
	w    workload
	tr   *tracer
	tmp  string
	seed int64
	out  map[string]float64
	root int
	// stepBudget is how long each stepping loop may take.
	stepBudget time.Duration
}

// timed runs fn reps times, each under a span, and returns the median
// wall in milliseconds. The first error stops the loop.
func (r *replay) timed(name string, reps int, fn func() error) (float64, error) {
	var walls []float64
	for i := 0; i < reps; i++ {
		sp := r.tr.begin(name, r.root, 0)
		t0 := time.Now()
		err := fn()
		walls = append(walls, ms(time.Since(t0)))
		r.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(walls), nil
}

func (r *replay) pulse() *lb.Pulse {
	if r.w.Domain.PulseAmp == 0 {
		return nil
	}
	return &lb.Pulse{Amp: r.w.Domain.PulseAmp, Period: r.w.Domain.PulsePeriod}
}

// firstInlet is where core attaches the cardiac pulse.
func firstInlet(dom *geometry.Domain) int {
	for k, io := range dom.Iolets {
		if io.IsInlet {
			return k
		}
	}
	return 0
}

func (r *replay) run() error {
	r.root = r.tr.begin("replay", -1, r.tr.newOp())
	defer r.tr.end(r.root)
	out := r.out
	// Fewer repetitions on the large domain keep a traced run inside
	// the same wall budget as an untraced one.
	reps := 5
	if r.w.Domain.Scale >= 3 {
		reps = 3
	}

	// geometry, partition: the pre-processing every job pays.
	v, err := geometry.VesselByName(r.w.Domain.Preset, r.w.Domain.Scale)
	if err != nil {
		return err
	}
	var dom *geometry.Domain
	if out["geometry.voxelise_ms"], err = r.timed("geometry.Voxelise", reps, func() (err error) {
		dom, err = geometry.Voxelise(v, 1, lattice.D3Q19())
		return err
	}); err != nil {
		return err
	}
	sites := dom.NumSites()
	out["geometry.sites"] = float64(sites)
	out["geometry.fluid_fraction"] = dom.FluidFraction()
	var g *partition.Graph
	out["partition.graph_ms"], _ = r.timed("partition.FromDomain", reps, func() error {
		g = partition.FromDomain(dom)
		return nil
	})
	var part *partition.Partition
	if out["partition.kway_ms"], err = r.timed("partition.ByMethod", reps, func() (err error) {
		part, err = partition.ByMethod(partition.MethodMultilevel, g, 2, r.seed)
		return err
	}); err != nil {
		return err
	}
	out["partition.edge_cut"] = part.EdgeCut(g)
	out["partition.imbalance"] = part.Imbalance(g)

	// lb, one rank: build, bare stepping, allocations, tiling.
	newSolver := func(threads int) (*lb.Solver, error) {
		s, err := lb.New(dom, lb.Params{Tau: solverTau, Threads: threads})
		if err == nil && r.pulse() != nil {
			err = s.SetPulse(firstInlet(dom), r.pulse())
		}
		return s, err
	}
	var sol *lb.Solver
	if out["lb.new_ms"], err = r.timed("lb.New", reps, func() (err error) {
		if sol != nil {
			sol.Close()
		}
		sol, err = newSolver(1)
		return err
	}); err != nil {
		return err
	}
	defer sol.Close()
	step := func(s *lb.Solver, n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.CollideStreamLocal()
			s.Swap()
		}
		return time.Since(t0)
	}
	per := step(sol, 4) / 4 // warm-up doubles as calibration
	n := max(8, int(r.stepBudget/max(per, time.Microsecond)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	bare := step(sol, n)
	runtime.ReadMemStats(&m1)
	out["lb.step_ns_per_site"] = float64(bare.Nanoseconds()) / float64(n) / float64(sites)
	out["lb.allocs_per_step"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	// The same loop again with one span per step: the difference is
	// what recording spans costs at the finest grain the trace uses.
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp := r.tr.begin("lb.CollideStreamLocal+Swap", r.root, 0)
		sol.CollideStreamLocal()
		sol.Swap()
		r.tr.end(sp)
	}
	out["trace.overhead_pct"] = 100 * (float64(time.Since(t0)) - float64(bare)) / float64(bare)
	out["lb.working_set_mb"] = float64(len(sol.F())+len(sol.FNew())) * 8 / (1 << 20)
	// Populations only: Q reads of f and Q writes of fNew per site
	// update; neighbour indices and cache misses are not counted.
	out["lb.bytes_per_update_computed"] = float64(2 * dom.Model.Q * 8)

	sol2, err := newSolver(2)
	if err != nil {
		return err
	}
	defer sol2.Close()
	step(sol2, 4)
	var speedups []float64
	for i := 0; i < 3; i++ {
		sp := r.tr.begin("lb.tiling_pair", r.root, 0)
		t1 := step(sol, n/6+1)
		t2 := step(sol2, n/6+1)
		r.tr.end(sp)
		speedups = append(speedups, float64(t1)/float64(t2))
	}
	out["lb.t2_speedup"] = median(speedups)
	out["lb.t2_speedup_min"], out["lb.t2_speedup_max"] = minMax(speedups)

	fld, base, later, err := r.replayDist(dom, part, n)
	if err != nil {
		return err
	}
	if err := r.replayCheckpoint(base, later, reps); err != nil {
		return err
	}
	if err := r.replayCore(r.out["lb.dist1_step_ns_per_site"] * float64(sites)); err != nil {
		return err
	}
	if err := r.replayViews(fld, reps); err != nil {
		return err
	}
	r.replayObs()
	return nil
}

// replayDist times the distributed solver: stepping and traffic at 2
// ranks (the strong-scaling configuration), gathers at 1 rank (how the
// daemon runs its jobs). It returns the gathered fields plus two solver
// states 100 pulsed steps apart for the checkpoint replay.
func (r *replay) replayDist(dom *geometry.Domain, part *partition.Partition, n int) (*field.Field, *lb.CheckpointState, *lb.CheckpointState, error) {
	out := r.out
	newDist := func(c *par.Comm, p *partition.Partition) *lb.Dist {
		d, err := lb.NewDist(c, dom, p, lb.Params{Tau: solverTau})
		if err == nil && r.pulse() != nil {
			err = d.SetPulse(firstInlet(dom), r.pulse())
		}
		if err != nil {
			panic(err) // unwinds the runtime; reported by runRanks
		}
		return d
	}
	rt2 := par.NewRuntime(2)
	err := runRanks(rt2, func(c *par.Comm) {
		d := newDist(c, part)
		defer d.Close()
		d.Advance(4)
		// Two barriers fence the counter reads: nobody sends between them.
		c.Barrier()
		var b0, m0 int64
		if c.Rank() == 0 {
			b0, m0 = rt2.Traffic().Bytes(), rt2.Traffic().Messages()
		}
		c.Barrier()
		sp := -1
		if c.Rank() == 0 {
			sp = r.tr.begin("lb.Dist.Step", r.root, 0)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d.Step()
		}
		mine := float64(time.Since(t0).Nanoseconds())
		slowest := c.AllreduceScalar(par.OpMax, mine)
		if c.Rank() == 0 {
			r.tr.end(sp)
			out["lb.dist_step_ns_per_site"] = slowest / float64(n) / float64(dom.NumSites())
		}
		c.Barrier()
		if c.Rank() == 0 {
			out["par.halo_bytes_per_step"] = float64(rt2.Traffic().Bytes()-b0) / float64(n)
			out["par.halo_msgs_per_step"] = float64(rt2.Traffic().Messages()-m0) / float64(n)
		}
		c.Barrier()
		const rounds = 2000
		t0 = time.Now()
		for i := 0; i < rounds; i++ {
			c.BcastInt(0, i)
		}
		if c.Rank() == 0 {
			out["par.bcast_us"] = float64(time.Since(t0).Nanoseconds()) / rounds / 1e3
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}

	var fld *field.Field
	var base, later *lb.CheckpointState
	whole, err := partition.ByMethod(partition.MethodMultilevel, partition.FromDomain(dom), 1, r.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	err = runRanks(par.NewRuntime(1), func(c *par.Comm) {
		sp := r.tr.begin("lb.NewDist", r.root, 0)
		d := newDist(c, whole)
		r.tr.end(sp)
		defer d.Close()
		d.Advance(16)
		// Dist.Step at 1 rank is the path core.Run takes for a 1-rank
		// job; Solver (above) is the same kernel written a second time.
		sp = r.tr.begin("lb.Dist.Step(1 rank)", r.root, 0)
		t0 := time.Now()
		d.Advance(n)
		out["lb.dist1_step_ns_per_site"] = float64(time.Since(t0).Nanoseconds()) / float64(n) / float64(dom.NumSites())
		r.tr.end(sp)
		out["lb.gather_state_ms"], _ = r.timed("lb.Dist.GatherState", 3, func() error {
			base = d.GatherState(base)
			return nil
		})
		d.Advance(100)
		later = d.GatherState(nil)
		out["lb.gather_fields_ms"], _ = r.timed("lb.Dist.GatherFields", 5, func() error {
			rho, ux, uy, uz, wss := d.GatherFields(0)
			fld = &field.Field{Dom: dom, Rho: rho, Ux: ux, Uy: uy, Uz: uz, WSS: wss}
			return nil
		})
	})
	return fld, base, later, err
}

// runRanks runs fn on every rank and turns a rank's panic into an error.
func runRanks(rt *par.Runtime, fn func(c *par.Comm)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("rank panic: %v", p)
		}
	}()
	rt.Run(fn)
	return nil
}

// replayCheckpoint times the checkpoint codec on the workload's state
// and the store on a directory of the benchmark's own: full and delta
// encode, decode, dirty-tile scan, journal appends, checkpoint writes
// and loading a base + 7 deltas chain.
func (r *replay) replayCheckpoint(base, later *lb.CheckpointState, reps int) error {
	out := r.out
	var full bytes.Buffer
	var err error
	if out["lb.ckpt_encode_ms"], err = r.timed("lb.CheckpointState.EncodeTo", reps, func() error {
		full.Reset()
		return base.EncodeTo(&full)
	}); err != nil {
		return err
	}
	out["lb.ckpt_bytes"] = float64(full.Len())
	if out["lb.ckpt_decode_ms"], err = r.timed("lb.DecodeCheckpointBytes", reps, func() error {
		_, err := lb.DecodeCheckpointBytes(full.Bytes())
		return err
	}); err != nil {
		return err
	}
	var dirty []int
	if out["lb.dirty_tiles_ms"], err = r.timed("lb.CheckpointState.DirtyTiles", reps, func() (err error) {
		dirty, err = later.DirtyTiles(base, lb.DefaultDeltaTileSites, dirty[:0])
		return err
	}); err != nil {
		return err
	}
	out["lb.dirty_ratio"] = float64(len(dirty)) / float64(lb.NumDeltaTiles(base.Info.Sites, lb.DefaultDeltaTileSites))
	fullCRC, err := lb.CheckpointCRC(full.Bytes())
	if err != nil {
		return err
	}
	var delta bytes.Buffer
	if out["lb.delta_encode_ms"], err = r.timed("lb.CheckpointState.EncodeDeltaTo", reps, func() error {
		delta.Reset()
		_, err := later.EncodeDeltaTo(&delta, base, 1, fullCRC, lb.DefaultDeltaTileSites, dirty)
		return err
	}); err != nil {
		return err
	}
	out["lb.delta_bytes"] = float64(delta.Len())

	dir, err := os.MkdirTemp(r.tmp, "replay-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	page := make([]byte, 4096)
	if out["store.fsync_ms"], err = r.timed("fsync(4KiB)", 20, func() error {
		f, err := os.Create(filepath.Join(dir, "fsync-probe"))
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Write(page); err != nil {
			return err
		}
		return f.Sync()
	}); err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	if err := st.EnableJournal(0); err != nil {
		return err
	}
	defer st.CloseJournal()
	spec := r.w.burstSpec("pipe")
	k := 0
	if out["store.append_submit_ms"], err = r.timed("store.AppendSubmit", 100, func() error {
		k++
		id := fmt.Sprintf("job-%04d", k)
		return st.AppendSubmit(id, spec, store.JobRecord{ID: id, State: "queued", CreatedAt: time.Now()})
	}); err != nil {
		return err
	}
	const noWait = 1000
	sp := r.tr.begin("store.AppendStateNoWait", r.root, 0)
	t0 := time.Now()
	for i := 0; i < noWait; i++ {
		id := fmt.Sprintf("job-%04d", i%100+1)
		if err := st.AppendStateNoWait(id, store.JobRecord{ID: id, State: "running", Step: i}); err != nil {
			return fmt.Errorf("store.AppendStateNoWait: %w", err)
		}
	}
	out["store.append_state_nowait_us"] = float64(time.Since(t0).Nanoseconds()) / noWait / 1e3
	r.tr.end(sp)

	// A chain of one full and seven deltas, alternating between the two
	// states (steps made to advance) so no further stepping is needed.
	const id = "job-0001"
	states := [2]*lb.CheckpointState{base, later}
	base.Info.Step, later.Info.Step = 100, 200
	var putFull, putDelta []float64
	for i := 0; i < 3; i++ {
		sp := r.tr.begin("store.PutCheckpoint", r.root, 0)
		t0 := time.Now()
		err := st.PutCheckpoint(id, full.Bytes())
		putFull = append(putFull, ms(time.Since(t0)))
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("store.PutCheckpoint: %w", err)
		}
	}
	full.Reset()
	if err := base.EncodeTo(&full); err != nil {
		return err
	}
	if err := st.PutCheckpoint(id, full.Bytes()); err != nil {
		return err
	}
	prevCRC, err := lb.CheckpointCRC(full.Bytes())
	if err != nil {
		return err
	}
	for seq := uint64(1); seq <= 7; seq++ {
		cur, prev := states[seq%2], states[(seq+1)%2]
		cur.Info.Step = prev.Info.Step + 100
		delta.Reset()
		stats, err := cur.EncodeDeltaTo(&delta, prev, seq, prevCRC, lb.DefaultDeltaTileSites, nil)
		if err != nil {
			return fmt.Errorf("delta %d: %w", seq, err)
		}
		prevCRC = stats.CRC
		sp := r.tr.begin("store.PutCheckpointDelta", r.root, 0)
		t0 := time.Now()
		err = st.PutCheckpointDelta(id, seq, delta.Bytes())
		putDelta = append(putDelta, ms(time.Since(t0)))
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("store.PutCheckpointDelta: %w", err)
		}
	}
	out["store.put_checkpoint_ms"] = median(putFull)
	out["store.put_delta_ms"] = median(putDelta)
	if out["store.load_chain_ms"], err = r.timed("store.CheckpointState", 3, func() error {
		got, err := st.CheckpointState(id)
		if err == nil && got.Info.Step != states[1].Info.Step {
			err = fmt.Errorf("chain loaded to step %d, want %d", got.Info.Step, states[1].Info.Step)
		}
		return err
	}); err != nil {
		return err
	}
	return nil
}

// nopSink is a checkpoint sink that keeps the gather and drops the rest.
type nopSink struct{ buf *lb.CheckpointState }

func (s *nopSink) TakeBuffer() *lb.CheckpointState { return s.buf }
func (s *nopSink) Deliver(st *lb.CheckpointState)  { s.buf = st }

// replayCore measures what core.Run adds around the bare kernel, by
// difference over the same steps of one pre-processed simulation: the
// loop itself, demand-driven snapshot publication at cadence 16 with a
// consumer that always wants one, and the in-loop half of a checkpoint
// with a sink that does nothing. The stepping loop is timed from the
// first OnStep to the last, so building the solver and the closing
// snapshot stay out; each wall is the faster of two runs.
func (r *replay) replayCore(bareStepNs float64) error {
	// Enough steps for two snapshots and three checkpoints on the
	// large domain's short rep too.
	steps := max(r.w.KernelSteps, 34)
	snapEvery, ckptEvery := 16, min(100, (steps-1)/3)
	cfg, err := r.w.Domain.coreConfig(1, 1)
	if err != nil {
		return err
	}
	var first, last time.Time
	cfg.OnStep = func(step, _ int) {
		switch step {
		case 1:
			first = time.Now()
		case steps:
			last = time.Now()
		}
	}
	if r.out["core.new_ms"], err = r.timed("core.New", 1, func() (err error) {
		_, err = core.New(cfg)
		return err
	}); err != nil {
		return err
	}
	sim, err := core.New(cfg)
	if err != nil {
		return err
	}
	loopNs := func(name string, mod func(*core.Config)) (float64, error) {
		sim.Cfg = cfg
		mod(&sim.Cfg)
		best := 0.0
		for i := 0; i < 2; i++ {
			if _, err := r.timed(name, 1, func() error { return sim.Run(steps) }); err != nil {
				return 0, err
			}
			if w := float64(last.Sub(first).Nanoseconds()); best == 0 || w < best {
				best = w
			}
		}
		return best, nil
	}
	plain, err := loopNs("core.Run", func(*core.Config) {})
	if err != nil {
		return err
	}
	snap, err := loopNs("core.Run+snapshots", func(c *core.Config) {
		c.SnapshotEvery = snapEvery
		c.OnSnapshot = func(*core.Snapshot) {}
		c.SnapshotInterest = func() bool { return true }
	})
	if err != nil {
		return err
	}
	ckpt, err := loopNs("core.Run+checkpoints", func(c *core.Config) {
		c.CheckpointEvery = ckptEvery
		c.Checkpoint = &nopSink{}
	})
	if err != nil {
		return err
	}
	// What one burst job costs with no daemon around it (median of 3
	// per preset, mean over the presets).
	var burst []float64
	for _, preset := range burstPresets {
		cfg, err := domainSpec{Preset: preset, Scale: 1}.coreConfig(1, 1)
		if err != nil {
			return err
		}
		wall, err := r.timed("core.New+Run(burst)", 3, func() error {
			sim, err := core.New(cfg)
			if err != nil {
				return err
			}
			return sim.Run(burstSteps)
		})
		if err != nil {
			return err
		}
		burst = append(burst, wall)
	}
	r.out["core.burst_job_ms"] = (burst[0] + burst[1] + burst[2] + burst[3]) / 4
	// OnStep(1) to OnStep(steps) spans steps-1 steps and every cadence
	// point before the last step.
	r.out["core.loop_overhead_ns_per_step"] = plain/float64(steps-1) - bareStepNs
	r.out["core.snapshot_cost_ms"] = (snap - plain) / float64((steps-1)/snapEvery) / 1e6
	r.out["core.checkpoint_cost_ms"] = (ckpt - plain) / float64((steps-1)/ckptEvery) / 1e6
	return nil
}

// replayViews times the in situ leg on the gathered field: render at the
// workload's frame size, PNG encode, octree build and the reduced-data
// query over the same eight regions the viewer cycle asks for.
func (r *replay) replayViews(fld *field.Field, reps int) error {
	out := r.out
	req := insitu.DefaultRequest()
	req.Scalar = field.ScalarSpeed
	req.W, req.H = r.w.FrameW, r.w.FrameH
	var img *render.Image
	var err error
	if out["insitu.render_ms"], err = r.timed("insitu.RenderField", reps, func() (err error) {
		img, err = insitu.RenderField(fld, req)
		return err
	}); err != nil {
		return err
	}
	var pngBytes []byte
	if out["render.png_ms"], err = r.timed("render.EncodePNGBytes", reps, func() (err error) {
		pngBytes, err = render.EncodePNGBytes(img)
		return err
	}); err != nil {
		return err
	}
	out["render.png_bytes"] = float64(len(pngBytes))

	snap := &core.Snapshot{Field: fld}
	tree, err := snap.Octree()
	if err != nil {
		return err
	}
	if out["octree.build_ms"], err = r.timed("core.Snapshot.Octree", reps, func() error {
		_, err := snap.Octree()
		return err
	}); err != nil {
		return err
	}
	dims := fld.Dom.Dims.F()
	rois := octants(dims)
	oct := 0
	var replyBytes []float64
	if out["octree.query_ms"], err = r.timed("core.QueryReduced", 2*len(rois), func() error {
		roi := rois[oct%len(rois)]
		oct++
		reply, err := core.QueryReduced(tree, dims, roi.Min, roi.Max, 0, 3)
		replyBytes = append(replyBytes, float64(len(reply)))
		return err
	}); err != nil {
		return err
	}
	whole, err := core.QueryReduced(tree, dims, vec.V3{}, vec.V3{}, 0, 0)
	if err != nil {
		return err
	}
	out["octree.reply_bytes"] = median(replyBytes)
	out["octree.reduction_pct"] = 100 * (1 - median(replyBytes)/float64(len(whole)))
	return nil
}

// replayObs prices the two instruments the solver loop calls.
func (r *replay) replayObs() {
	sp := r.tr.begin("obs", r.root, 0)
	defer r.tr.end(sp)
	var h obs.Histogram
	const nObs = 1_000_000
	t0 := time.Now()
	for i := 0; i < nObs; i++ {
		h.Observe(int64(i))
	}
	r.out["obs.observe_ns"] = float64(time.Since(t0).Nanoseconds()) / nObs
	rec := obs.NewRecorder(obs.DefaultRingSize)
	const nRec = 200_000
	t0 = time.Now()
	for i := 0; i < nRec; i++ {
		rec.Record("step", i, 1000, "")
	}
	r.out["obs.record_ns"] = float64(time.Since(t0).Nanoseconds()) / nRec
}
