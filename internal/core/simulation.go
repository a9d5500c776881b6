// Package core wires the whole co-design architecture of Fig. 2
// together: pre-processing (geometry → initial balance → partitioner →
// distribution), the distributed sparse LBM simulation, the in situ
// post-processing pipeline and the steering loop, with optional
// visualisation-aware repartitioning mid-run — the paper's closed
// loop from pre-processing over simulation and concurrent
// post-processing to a user interface for steering.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/insitu"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/render"
	"repro/internal/stats"
	"repro/internal/steering"
	"repro/internal/viz"
)

// Config assembles a simulation run.
type Config struct {
	// Vessel geometry; voxelised at spacing H.
	Vessel *geometry.Vessel
	H      float64
	// Domain, when set, is the already voxelised geometry and New skips
	// pre-processing step 1 (Vessel and H are not read). The simulation
	// only reads it, so any number of runs may share one Domain — the
	// service hands every job of one geometry the same one.
	Domain *geometry.Domain
	// Tau is the BGK relaxation time.
	Tau float64
	// Ranks is the number of simulated MPI ranks (default 1).
	Ranks int
	// Threads caps how many participants claim each rank's fused
	// collide+stream pass (1 = serial; 0 = GOMAXPROCS). A rank whose
	// pass is too small to feed them takes fewer (lb.Participants).
	// Results are bit-identical to serial for any value — see
	// lb.Params.Threads, whose zero value stays serial.
	Threads int
	// Method selects the domain-decomposition algorithm (default
	// multilevel, the ParMETIS role).
	Method partition.Method
	// VizEvery runs the in situ pipeline every N steps (0 disables).
	VizEvery int
	// VizRequest is the unattended render request (DefaultRequest when
	// zero).
	VizRequest insitu.Request
	// VizWeightAlpha adds visualisation cost into the balance equation
	// when repartitioning (section IV-B extension).
	VizWeightAlpha float64
	// RepartitionAt triggers a viz-aware repartition at that step
	// (0 disables).
	RepartitionAt int
	// SteerAddr enables the steering server on that address
	// (e.g. "127.0.0.1:0").
	SteerAddr string
	// Controller injects a transport-agnostic steering queue. The run
	// loop polls it exactly as it polls the TCP server's; the HTTP
	// service uses this to steer jobs without owning a TCP endpoint.
	// With SteerAddr also set, the TCP transport feeds the same
	// controller. The injector owns the controller's lifetime.
	Controller *steering.Controller
	// OnStep, when set, is invoked on rank 0 after every advanced time
	// step with (stepsDone, totalSteps) — the progress hook the job
	// manager uses. It must be cheap and must not call back into the
	// simulation.
	OnStep func(step, total int)
	// OnSnapshot, when set together with SnapshotEvery > 0, receives on
	// rank 0 an immutable full-domain field snapshot every
	// SnapshotEvery steps (and a final one when the run ends). The hook
	// runs on the solver's critical path: it must be O(1) — publish the
	// pointer and return. Rendering from the snapshot happens on the
	// caller's own goroutines, decoupling frame latency from step cost.
	OnSnapshot func(*Snapshot)
	// SnapshotEvery is the snapshot cadence in steps; 0 disables
	// publication entirely.
	SnapshotEvery int
	// SnapshotInterest, when set, makes in-loop snapshot publication
	// demand-driven: it is polled on rank 0 at each cadence boundary
	// and must report (cheaply, without blocking) whether any consumer
	// has asked for a fresh snapshot since the last publication. A
	// false answer skips the collective gather entirely, and repeated
	// false answers back the polling off to up to 8× SnapshotEvery —
	// a job nobody watches does no snapshot work at all. Rank 0
	// broadcasts each decision, so the skip stays collective. During
	// back-off, and until the run's first publication, the hook is
	// additionally probed at each steering boundary (riding the command
	// broadcast that happens anyway), so a viewer returning to a
	// long-idle job, or waiting for a job to start, pulls publication
	// forward instead of waiting out the back-off or the first cadence
	// (the first boundary follows the run's first step). The final
	// end-of-run snapshot is still published unconditionally: late
	// joiners (and post-mortem frame requests) always find the end
	// state. Nil preserves the fixed-cadence behaviour.
	SnapshotInterest func() bool
	// Checkpoint, when set together with CheckpointEvery > 0, receives
	// on rank 0 the gathered solver state every CheckpointEvery steps.
	// Only the collective gather runs on the solver's critical path:
	// TakeBuffer/Deliver are O(1) buffer swaps, and the sink's own
	// goroutine does the encoding, CRC and fsync concurrently with the
	// next steps (see service's async checkpoint writer). The sink must
	// drain on shutdown so the last delivered state still hits disk.
	Checkpoint CheckpointSink
	// CheckpointEvery is the checkpoint cadence in steps; 0 disables.
	CheckpointEvery int
	// Restore, when set, holds a decoded checkpoint the run resumes
	// from (lb.DecodeCheckpointBytes or the service store's
	// CheckpointState; the arrays are treated read-only):
	// Run validates it against the domain, installs it on every rank
	// before the first step, and counts steps from the checkpoint's
	// step onward — Run(total) then advances only the remaining
	// total - Restore.Info.Step steps. Taking the decoded state
	// rather than bytes keeps resume at one parse total: the caller
	// decodes (and thereby CRC-checks) once, every rank shares it.
	Restore *lb.CheckpointState
	// Phases, when set, receives sampled phase timings on rank 0: step
	// duration every phaseSampleEvery steps, plus every command-word
	// broadcast wait, snapshot field gather and checkpoint state
	// gather. The observer runs on the stepping goroutine and must be
	// allocation-free (obs histograms and the flight recorder are).
	Phases obs.PhaseObserver
	// PulseAmp/PulsePeriod add a sinusoidal modulation to the first
	// inlet (cardiac waveform; 0 amplitude = steady).
	PulseAmp    float64
	PulsePeriod float64
	// StartPaused parks the run loop before the first step: the solver
	// immediately waits for steering commands (resume, quit, frames)
	// exactly as a mid-run pause does. Recovery uses it to bring back
	// jobs that were paused when the daemon stopped, instead of
	// silently resuming them. With snapshots enabled the run publishes
	// the state it starts from before it parks. Requires a Controller
	// (or SteerAddr); without a steering queue nothing could ever resume
	// the run, so the flag is ignored.
	StartPaused bool
	// IoletOverrides re-applies steered iolet densities on every rank
	// before the first step, after any checkpoint restore. This is how
	// a restart preserves set-iolet commands issued *after* the last
	// checkpoint was taken (the checkpoint itself carries the densities
	// as of its own step). Out-of-range indices fail Run up front.
	IoletOverrides []IoletOverride
	// Seed makes partitioning deterministic.
	Seed int64
}

// IoletOverride pins one iolet's steered base density at start-up.
type IoletOverride struct {
	Iolet   int
	Density float64
}

// phaseSampleEvery is the step-duration sampling cadence in steps.
// Collectives, gathers and checkpoint stalls are infrequent already and
// are always timed.
const phaseSampleEvery = 16

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Threads == 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Method == "" {
		c.Method = partition.MethodMultilevel
	}
	if c.VizRequest.W == 0 {
		c.VizRequest = insitu.DefaultRequest()
	}
	return c
}

// Simulation is a configured, pre-processed run.
type Simulation struct {
	Cfg    Config
	Dom    *geometry.Domain
	Part   *partition.Partition
	RT     *par.Runtime
	Server *steering.Server
	// Ctrl is the steering queue the run loop polls — the injected
	// Config.Controller, or the TCP server's own when only SteerAddr
	// was given.
	Ctrl *steering.Controller

	// Results populated by Run.
	LastImage   *render.Image
	StepsDone   int
	Elapsed     time.Duration
	HaloBytes   int64
	Imbalance   float64
	Repartition *RepartitionReport
	// PlanHit reports that New found the solver's plan of the Domain —
	// the whole-domain stream table every rank's table is cut from —
	// already kept on it; PlanTime is what finding or building it took.
	PlanHit  bool
	PlanTime time.Duration
	// Participants is how many participants step rank 0's passes:
	// lb.Participants of its site count under Cfg.Threads.
	Participants int

	// graph is the site graph behind Graph(); New builds it only when
	// there is something to partition.
	graphOnce sync.Once
	graph     *partition.Graph

	// pendingImage holds steering image requests awaiting the next
	// collective render; only rank 0's goroutine touches it.
	pendingImage []*steering.Op

	// frames are the frames in flight made from this simulation's
	// snapshots (Snapshot.Frame); Run yields to them before each step.
	frames guard.Frames
}

// RepartitionReport records the E9 observables of a mid-run rebalance.
type RepartitionReport struct {
	Step            int
	ImbalanceBefore float64
	ImbalanceAfter  float64
	Migrated        int
}

// New performs the pre-processing phase: voxelise the vessel, build the
// site graph, partition it, lay out the stream table and set up the
// rank runtime. This is the IV-B sequence (read geometry → partition for
// the fluid calculation → fixed distribution), with the viz-weight and
// repartition extensions available at Run time. The stream table
// depends on the geometry alone and is kept on the Domain (lb.Prepare):
// a second simulation on the same Domain, and every Run of this one,
// finds it there.
func New(cfg Config) (*Simulation, error) {
	cfg = cfg.withDefaults()
	if cfg.Tau <= 0.5 {
		return nil, fmt.Errorf("core: tau must exceed 0.5")
	}
	dom := cfg.Domain
	var err error
	if dom == nil {
		if cfg.Vessel == nil {
			return nil, fmt.Errorf("core: vessel required")
		}
		if cfg.H <= 0 {
			return nil, fmt.Errorf("core: lattice spacing must be positive")
		}
		if dom, err = geometry.Voxelise(cfg.Vessel, cfg.H, lattice.D3Q19()); err != nil {
			return nil, err
		}
	}
	s := &Simulation{
		Cfg: cfg,
		Dom: dom,
		RT:  par.NewRuntime(cfg.Ranks),
	}
	if cfg.Ranks == 1 {
		// Nothing to partition, so no graph either: Graph() builds it
		// for whoever still asks.
		s.Part, err = partition.OnePart(cfg.Method, dom.NumSites())
	} else {
		s.Part, err = partition.ByMethod(cfg.Method, s.Graph(), cfg.Ranks, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	s.Participants = lb.Participants(rankSites(s.Part, 0), cfg.Threads)
	planStart := time.Now()
	s.PlanHit, err = lb.Prepare(dom)
	s.PlanTime = time.Since(planStart)
	if err != nil {
		return nil, err
	}
	s.Ctrl = cfg.Controller
	if cfg.SteerAddr != "" {
		var srv *steering.Server
		if s.Ctrl != nil {
			srv, err = steering.ServeController(cfg.SteerAddr, s.Ctrl)
		} else {
			srv, err = steering.Serve(cfg.SteerAddr)
		}
		if err != nil {
			return nil, err
		}
		s.Server = srv
		s.Ctrl = srv.Controller()
	}
	return s, nil
}

// rankSites counts the sites part assigns to rank r.
func rankSites(part *partition.Partition, r int32) int {
	n := 0
	for _, p := range part.Parts {
		if p == r {
			n++
		}
	}
	return n
}

// Graph returns the simulation's site graph, built from the domain on
// first use. It belongs to this simulation alone (repartitioning writes
// viz weights into it), unlike Dom, which may be shared.
func (s *Simulation) Graph() *partition.Graph {
	s.graphOnce.Do(func() { s.graph = partition.FromDomain(s.Dom) })
	return s.graph
}

// Close releases the steering listener.
func (s *Simulation) Close() {
	if s.Server != nil {
		s.Server.Close()
		s.Server = nil
	}
}

// Run advances the simulation by totalSteps, servicing in situ
// visualisation and steering along the way. It blocks until all ranks
// finish (or a steering client sends quit).
func (s *Simulation) Run(totalSteps int) error {
	cfg := s.Cfg
	start := time.Now()
	var rank0Err error

	// Resuming from a checkpoint: validate the decoded state against
	// the domain before any rank starts, so a mismatch is a clean
	// error, not a mid-collective panic.
	startStep := 0
	if cfg.Restore != nil {
		info := cfg.Restore.Info
		if info.Sites != s.Dom.NumSites() || info.Q != s.Dom.Model.Q || info.Iolets != len(s.Dom.Iolets) {
			return fmt.Errorf("core: checkpoint is for %d sites Q=%d %d iolets; domain has %d/%d/%d",
				info.Sites, info.Q, info.Iolets,
				s.Dom.NumSites(), s.Dom.Model.Q, len(s.Dom.Iolets))
		}
		startStep = info.Step
	}
	for _, ov := range cfg.IoletOverrides {
		if ov.Iolet < 0 || ov.Iolet >= len(s.Dom.Iolets) {
			return fmt.Errorf("core: iolet override %d out of range [0,%d)", ov.Iolet, len(s.Dom.Iolets))
		}
	}

	s.RT.Run(func(c *par.Comm) {
		// Each rank tracks the current partition locally; repartitioning
		// replaces it collectively (rank 0 computes, everyone receives).
		myPart := s.Part
		d, err := lb.NewDist(c, s.Dom, myPart, lb.Params{Tau: cfg.Tau, Threads: cfg.Threads})
		if err != nil {
			panic(err)
		}
		if cfg.PulseAmp != 0 {
			// Attach the cardiac pulse to the first inlet.
			for k, io := range s.Dom.Iolets {
				if io.IsInlet {
					period := cfg.PulsePeriod
					if period <= 0 {
						period = 400
					}
					if err := d.SetPulse(k, &lb.Pulse{Amp: cfg.PulseAmp, Period: period}); err != nil {
						panic(err)
					}
					break
				}
			}
		}
		if cfg.Restore != nil {
			// Validated above; every rank installs from the shared
			// decoded state (concurrent read-only access).
			if err := d.RestoreState(cfg.Restore); err != nil {
				panic(err)
			}
		}
		// Steered densities survive restarts: every rank applies the
		// same overrides (validated above) after the restore, so the
		// state stays collective-identical.
		for _, ov := range cfg.IoletOverrides {
			if err := d.SetIoletDensity(ov.Iolet, ov.Density); err != nil {
				panic(err)
			}
		}
		master := c.Rank() == 0
		req := cfg.VizRequest
		paused := cfg.StartPaused && s.Ctrl != nil
		quit := false
		// lastSnapStep is per-rank local but evolves identically on
		// every rank, keeping snapshot gathers collective.
		lastSnapStep := -1
		snapEnabled := cfg.SnapshotEvery > 0 && cfg.OnSnapshot != nil
		// nextSnapCheck is the next step at which snapshot publication
		// is (re)considered; with SnapshotInterest set it walks away
		// from the cadence while nobody is watching. Every rank
		// advances it from broadcast-agreed decisions, so the gathers
		// stay collective.
		nextSnapCheck := 0
		snapIdleStreak := 0
		// waited sums this rank's waits for its run's frames since
		// published, the last snapshot. Frames first gives a frame the
		// cores, but a watched job keeps at least half its time for
		// steps: while rank 0 owes steps (it has waited longer than it
		// stepped since the last snapshot), demand is left latched and
		// not acted on, so a viewer streaming every snapshot cannot
		// hold the job to a step per frame.
		var waited time.Duration
		published := time.Now()
		owesSteps := func() bool { return 2*waited > time.Since(published) }
		if snapEnabled {
			nextSnapCheck = (startStep/cfg.SnapshotEvery + 1) * cfg.SnapshotEvery
		}
		// publish gathers and hands out the current state (collective)
		// and restarts the cadence from it.
		publish := func() {
			s.publishSnapshot(c, d)
			waited, published = 0, time.Now()
			lastSnapStep = d.StepCount()
			snapIdleStreak = 0
			nextSnapCheck = d.StepCount() + cfg.SnapshotEvery
		}
		if paused && snapEnabled {
			// A run that starts parked publishes the state it starts from
			// (every rank reads the same cfg.StartPaused): like a mid-run
			// pause, a parked solver cannot service demand-driven
			// publication, so "a paused job's latest snapshot is its
			// current state" must hold from step 0 of the run.
			publish()
		}
		var stepTimer stats.Timer
		// Phase observation (rank 0 only): step timing is sampled every
		// phaseSampleEvery steps so instrumentation stays off the
		// steady-state hot path; the infrequent collectives are always
		// timed. phaseStart is reused across phases — it is plain local
		// state, no allocation.
		observe := cfg.Phases
		if !master {
			observe = nil
		}
		var phaseStart time.Time
		// The command word rank 0 broadcasts at each steering boundary:
		// [doViz, doQuit, doPause, doResume, ioletIdx+1, density,
		//  az, el, dist, w, h, mode, scalar, snapPull]
		// One rank reuses this one for the whole run; with more, every
		// boundary rebinds it to the broadcast's private copy, so rank 0
		// never writes a word a slower rank is still reading.
		cmd := make([]float64, 14)

		for step := startStep; step < totalSteps && !quit; step++ {
			// Steering commands are handled at viz boundaries and while
			// paused; all ranks must agree, so rank 0 broadcasts a
			// command word each viz interval.
			if !paused {
				// Frames first: a frame in flight from this run's
				// snapshots ends before the next step starts. The wait
				// is not step time, so it sits outside stepTimer and
				// PhaseStep.
				if wait := s.frames.Yield(); wait > 0 {
					waited += wait
					if observe != nil {
						observe.ObservePhase(obs.PhaseYield, d.StepCount(), wait.Nanoseconds())
					}
				}
				sampled := observe != nil && step%phaseSampleEvery == 0
				if sampled {
					phaseStart = time.Now()
				}
				stepTimer.Start()
				d.Step()
				stepTimer.Stop()
				if sampled {
					observe.ObservePhase(obs.PhaseStep, d.StepCount(), time.Since(phaseStart).Nanoseconds())
				}
				if master && cfg.OnStep != nil {
					cfg.OnStep(d.StepCount(), totalSteps)
				}
			} else {
				step-- // don't consume steps while paused
			}

			// Visualisation-aware repartitioning (E9).
			if cfg.RepartitionAt > 0 && d.StepCount() == cfg.RepartitionAt {
				nd, newPart, rep, err := s.repartition(c, d, myPart)
				if err != nil {
					panic(err)
				}
				d = nd
				myPart = newPart
				if master {
					s.Repartition = rep
				}
			}

			// Snapshot publication (render offload): a collective gather
			// considered at a deterministic schedule. Without a
			// SnapshotInterest hook the cadence is fixed, as before;
			// with one, rank 0 decides demand and broadcasts a flag —
			// the gather only happens when somebody asked since the
			// last publish, and idle jobs back the checks off. A check
			// while rank 0 owes steps is skipped too.
			if snapEnabled && !paused && d.StepCount() >= nextSnapCheck {
				want := 1
				if cfg.SnapshotInterest != nil {
					if master && (owesSteps() || !cfg.SnapshotInterest()) {
						want = 0
					}
					want = c.BcastInt(0, want)
				}
				if want == 1 {
					publish()
				} else {
					// Idle back-off: successive skips double the wait,
					// capped at 8× the cadence — bounding both the
					// interest-poll chatter of an unwatched job and the
					// first-frame latency of a subscriber arriving
					// mid-back-off.
					if snapIdleStreak < 3 {
						snapIdleStreak++
					}
					nextSnapCheck = d.StepCount() + cfg.SnapshotEvery<<snapIdleStreak
				}
			}

			// Durable checkpoint at a deterministic cadence: the same
			// collective-gather pattern as snapshots, feeding the sink's
			// writer through the buffer-pair swap.
			ckptDue := cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil &&
				!paused && d.StepCount()%cfg.CheckpointEvery == 0
			if ckptDue {
				s.checkpointDurable(c, d)
			}

			vizDue := cfg.VizEvery > 0 && d.StepCount()%cfg.VizEvery == 0 && !paused
			steerDue := s.Ctrl != nil && (vizDue || paused || step%16 == 0)
			if !vizDue && !steerDue {
				continue
			}

			// Rank 0 decides the actions this boundary; others follow.
			clear(cmd)
			if master {
				if vizDue {
					cmd[0] = 1
				}
				// While snapshot checks are backed off, or nothing has
				// been published yet, piggyback a demand probe on this
				// boundary's existing broadcast: a viewer returning to a
				// long-idle job, or already waiting when the run starts
				// (its first boundary follows step 1), pulls publication
				// forward to the next steering boundary instead of
				// waiting out the back-off or the first cadence, at zero
				// extra collectives.
				if snapEnabled && cfg.SnapshotInterest != nil && !paused &&
					(lastSnapStep < 0 || nextSnapCheck > d.StepCount()+cfg.SnapshotEvery) &&
					!owesSteps() && cfg.SnapshotInterest() {
					cmd[13] = 1
				}
				if s.Ctrl != nil {
					for {
						var op *steering.Op
						if paused {
							op = s.Ctrl.PollWait()
						} else {
							op = s.Ctrl.Poll()
						}
						if op == nil {
							// A controller that closes while we are
							// paused can never deliver a resume;
							// treat it as quit so Run terminates.
							if paused && s.Ctrl.Closed() {
								cmd[1] = 1
							}
							break
						}
						switch op.Msg.Op {
						case steering.OpQuit:
							cmd[1] = 1
							op.Reply(steering.ServerMsg{Op: steering.OpQuit})
						case steering.OpPause:
							cmd[2] = 1
							op.Reply(steering.ServerMsg{Op: steering.OpPause})
						case steering.OpResume:
							cmd[3] = 1
							op.Reply(steering.ServerMsg{Op: steering.OpResume})
						case steering.OpSetIolet:
							// Validate before acknowledging: a success
							// reply followed by a failed apply would
							// poison rank0Err and fail the whole run
							// for one bad index.
							if op.Msg.Iolet < 0 || op.Msg.Iolet >= len(s.Dom.Iolets) {
								op.Reply(steering.ServerMsg{Op: steering.OpSetIolet,
									Error: fmt.Sprintf("iolet %d out of range [0,%d)", op.Msg.Iolet, len(s.Dom.Iolets))})
								break
							}
							cmd[4] = float64(op.Msg.Iolet + 1)
							cmd[5] = op.Msg.Density
							op.Reply(steering.ServerMsg{Op: steering.OpSetIolet})
						case steering.OpStatus:
							op.Reply(steering.ServerMsg{Op: steering.OpStatus, Status: s.status(c, d, &stepTimer, totalSteps, paused)})
						case steering.OpImage:
							if op.Msg.Request != nil {
								req = *op.Msg.Request
							}
							cmd[0] = 1 // render this boundary
							// Image is produced after the collective
							// render below; stash the op.
							s.pendingImage = append(s.pendingImage, op)
						default:
							op.Reply(steering.ServerMsg{Op: op.Msg.Op, Error: "unknown op"})
						}
						// Leave the poll loop once an action requiring
						// the collective path is queued: quit, resume
						// or a render (otherwise a paused client
						// awaiting a reply would deadlock). A set-iolet
						// also breaks out: the command word has one
						// iolet slot, so a second change must wait for
						// the next boundary rather than silently
						// overwrite the first.
						if cmd[1] == 1 || cmd[0] == 1 || cmd[4] > 0 || (paused && cmd[3] == 1) {
							break
						}
					}
				}
				cmd[6], cmd[7], cmd[8] = req.Azimuth, req.Elevation, req.DistFactor
				cmd[9], cmd[10] = float64(req.W), float64(req.H)
				cmd[11], cmd[12] = float64(req.Mode), float64(req.Scalar)
			}
			// The command broadcast doubles as the collective-wait probe:
			// on rank 0 its duration is dominated by how long the
			// slowest rank took to reach this boundary.
			if observe != nil {
				phaseStart = time.Now()
			}
			cmd = c.BcastF64(0, cmd)
			if observe != nil {
				observe.ObservePhase(obs.PhaseCollective, d.StepCount(), time.Since(phaseStart).Nanoseconds())
			}
			if cmd[1] == 1 {
				quit = true
			}
			if cmd[2] == 1 && !paused {
				paused = true
				// Entering pause publishes the pause-point state
				// (collective — every rank applies the same broadcast
				// command): a parked solver cannot service
				// demand-driven publication, so its latest snapshot
				// must already be current for the frames and data
				// served while paused.
				if snapEnabled && d.StepCount() != lastSnapStep {
					publish()
				}
			}
			if cmd[3] == 1 {
				paused = false
			}
			if cmd[13] == 1 && d.StepCount() != lastSnapStep {
				// Demand probe hit: publish now and restart the base
				// cadence from here.
				publish()
			}
			if cmd[4] > 0 {
				if err := d.SetIoletDensity(int(cmd[4])-1, cmd[5]); err != nil && master {
					rank0Err = err
				}
			}
			if cmd[0] == 1 {
				img := s.renderDistributed(c, d, reqFromCmd(req, cmd), myPart)
				if master {
					// Every pending op gets an answer — a failed
					// render must not leave clients hanging until
					// the run ends.
					for _, op := range s.pendingImage {
						if img == nil {
							op.Reply(steering.ServerMsg{Op: steering.OpImage, Error: "render failed"})
							continue
						}
						rep := steering.ServerMsg{Op: steering.OpImage, W: img.W, H: img.H}
						rep.PNG = encodePNG(img)
						op.Reply(rep)
					}
					s.pendingImage = nil
					if img != nil {
						s.LastImage = img
					}
				}
			}
		}
		// Publish the final state so late-joining viewers (and frame
		// requests after the run finished) see the last step without a
		// live solver — unless the cadence already captured it. Loop
		// exit is collective (quit is broadcast), so every rank
		// reaches this gather.
		if snapEnabled && d.StepCount() != lastSnapStep {
			s.publishSnapshot(c, d)
		}
		if master {
			s.Part = myPart
			s.StepsDone = d.StepCount()
			per := make([]float64, c.Size())
			counts := c.GatherInts(0, []int{d.NumOwned()})
			for r, v := range counts {
				per[r] = float64(v[0])
			}
			s.Imbalance = stats.Imbalance(per)
		} else {
			c.GatherInts(0, []int{d.NumOwned()})
		}
		// Nothing reads this rank's populations again: the next job's
		// solver of the same size starts in them. Not deferred, so a
		// rank that panicked gives nothing back.
		d.Release()
	})
	s.Elapsed = time.Since(start)
	s.HaloBytes = s.RT.Traffic().Bytes()
	return rank0Err
}

// encodePNG renders an image to PNG bytes; returns nil on failure (the
// steering client treats an empty PNG as an error).
func encodePNG(img *render.Image) []byte {
	png, err := render.EncodePNGBytes(img)
	if err != nil {
		return nil
	}
	return png
}

func reqFromCmd(req insitu.Request, cmd []float64) insitu.Request {
	req.Azimuth, req.Elevation, req.DistFactor = cmd[6], cmd[7], cmd[8]
	if cmd[9] > 0 {
		req.W, req.H = int(cmd[9]), int(cmd[10])
	}
	req.Mode = insitu.Mode(int(cmd[11]))
	req.Scalar = field.Scalar(int(cmd[12]))
	if req.W == 0 {
		req.W, req.H = 128, 96
	}
	return req
}

// renderDistributed extracts this rank's fields and runs the
// distributed render for the request; returns the merged image on rank
// 0, nil elsewhere.
func (s *Simulation) renderDistributed(c *par.Comm, d *lb.Dist, req insitu.Request, part *partition.Partition) *render.Image {
	f := s.localField(c, d, part)
	dims := s.Dom.Dims
	cam := insitu.CameraFor(dims, req)
	// Auto-range the transfer function collectively.
	localMax := f.MaxScalar(req.Scalar)
	globalMax := c.AllreduceScalar(par.OpMax, localMax)
	if globalMax == 0 {
		globalMax = 1e-6
	}
	tf := render.BlueRed(0, globalMax)
	switch req.Mode {
	case insitu.ModeStreamlines:
		seeds := viz.SeedsAcrossInlet(s.Dom, 12)
		lines, err := viz.TraceStreamlinesDist(c, f, part.Parts, viz.LineOptions{
			Seeds: seeds, MaxSteps: 400, Dt: 0.5,
		})
		if err != nil || lines == nil {
			return nil
		}
		img, err := viz.RenderLines(lines, cam, req.W, req.H, tf)
		if err != nil {
			return nil
		}
		return img
	case insitu.ModeLIC:
		img, err := viz.LICDist(c, f, part.Parts, viz.AxialSlice(dims), viz.LICOptions{W: req.W, H: req.H})
		if err != nil {
			return nil
		}
		return img
	case insitu.ModeWall:
		f.WSS = make([]float64, s.Dom.NumSites())
		for li, g := range d.Owned {
			f.WSS[g] = d.WallShearStress(li)
		}
		wmax := c.AllreduceScalar(par.OpMax, f.MaxScalar(field.ScalarWSS))
		if wmax == 0 {
			wmax = 1e-9
		}
		img, err := viz.RenderWallWSSDist(c, f, viz.WallOptions{
			W: req.W, H: req.H, Camera: cam, TF: render.BlueRed(0, wmax),
		})
		if err != nil {
			return nil
		}
		return img
	default:
		img, err := viz.RenderVolumeDist(c, f, viz.VolumeOptions{
			W: req.W, H: req.H, Camera: cam, TF: tf, Scalar: req.Scalar,
		})
		if err != nil {
			return nil
		}
		return img
	}
}

// localField builds this rank's partial field view over global arrays.
func (s *Simulation) localField(c *par.Comm, d *lb.Dist, part *partition.Partition) *field.Field {
	n := s.Dom.NumSites()
	f := &field.Field{
		Dom:   s.Dom,
		Rho:   make([]float64, n),
		Ux:    make([]float64, n),
		Uy:    make([]float64, n),
		Uz:    make([]float64, n),
		Owned: field.OwnedMask(part.Parts, c.Rank()),
	}
	for li, g := range d.Owned {
		f.Rho[g] = d.Density(li)
		f.Ux[g], f.Uy[g], f.Uz[g] = d.Velocity(li)
	}
	return f
}

// repartition adds visualisation cost to the balance equation and
// rebalances the decomposition, migrating solver state. Rank 0 computes
// the new partition (it owns the graph) and broadcasts the assignment;
// all ranks then migrate populations collectively.
func (s *Simulation) repartition(c *par.Comm, d *lb.Dist, cur *partition.Partition) (*lb.Dist, *partition.Partition, *RepartitionReport, error) {
	var rep *RepartitionReport
	var partsWire []int
	if c.Rank() == 0 {
		// Viz cost model: sites inside the current ROI (or the whole
		// domain) cost extra in proportion to VizWeightAlpha.
		roi := s.Cfg.VizRequest.ROI
		vizCost := make([]float64, s.Dom.NumSites())
		for i, site := range s.Dom.Sites {
			p := site.Pos.F()
			if roi.Size().Len2() == 0 || roi.Contains(p) {
				vizCost[i] = 1
			}
		}
		g := s.Graph()
		imbBefore := cur.Imbalance(g)
		if err := g.ApplyVizWeights(vizCost, s.Cfg.VizWeightAlpha); err != nil {
			panic(err)
		}
		newPart, err := partition.Repartition(g, cur, 1.05, s.Cfg.Seed)
		if err != nil {
			panic(err)
		}
		rep = &RepartitionReport{
			Step:            d.StepCount(),
			ImbalanceBefore: imbBefore,
			ImbalanceAfter:  newPart.Imbalance(g),
			Migrated:        partition.MigrationVolume(cur, newPart),
		}
		partsWire = make([]int, len(newPart.Parts))
		for i, p := range newPart.Parts {
			partsWire[i] = int(p)
		}
	}
	partsWire = c.BcastInts(0, partsWire)
	newPart := &partition.Partition{K: c.Size(), Parts: make([]int32, len(partsWire))}
	for i, p := range partsWire {
		newPart.Parts[i] = int32(p)
	}
	nd, err := d.Redistribute(newPart)
	if err != nil {
		return nil, nil, nil, err
	}
	return nd, newPart, rep, nil
}

// status assembles the steering status report.
func (s *Simulation) status(c *par.Comm, d *lb.Dist, timer *stats.Timer, totalSteps int, paused bool) *steering.Status {
	stepsDone := d.StepCount()
	rate := 0.0
	if timer.Count() > 0 && timer.Mean() > 0 {
		rate = float64(d.NumOwned()) / timer.Mean().Seconds() * float64(c.Size())
	}
	remaining := 0.0
	if timer.Count() > 0 {
		remaining = timer.Mean().Seconds() * float64(totalSteps-stepsDone)
	}
	return &steering.Status{
		Step:          stepsDone,
		TotalSteps:    totalSteps,
		NumSites:      s.Dom.NumSites(),
		Ranks:         c.Size(),
		SitesPerSec:   rate,
		RemainingSec:  remaining,
		Paused:        paused,
		CommBytes:     s.RT.Traffic().Bytes(),
		LoadImbalance: stats.ImbalanceI64(s.RT.Traffic().PerRankBytes()),
	}
}
