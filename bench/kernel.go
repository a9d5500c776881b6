package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geometry"
)

// fieldStats are the three scalars a run's final state is checked by:
// total mass (Σρ), the largest speed and the mean speed over all sites.
// A tolerance on these, not a hash, is the gate, so that a deliberate
// floating-point reordering in the kernel does not force a benchmark
// edit; the hash is printed for whoever wants bit-exactness.
type fieldStats struct {
	Sites     int     `json:"sites"`
	Steps     int     `json:"steps"`
	Mass      float64 `json:"mass"`
	MaxSpeed  float64 `json:"max_speed"`
	MeanSpeed float64 `json:"mean_speed"`
}

func statsOf(rho, ux, uy, uz []float64, steps int) fieldStats {
	st := fieldStats{Sites: len(rho), Steps: steps}
	var sum float64
	for i := range rho {
		st.Mass += rho[i]
		sp := math.Sqrt(ux[i]*ux[i] + uy[i]*uy[i] + uz[i]*uz[i])
		sum += sp
		st.MaxSpeed = math.Max(st.MaxSpeed, sp)
	}
	if len(rho) > 0 {
		st.MeanSpeed = sum / float64(len(rho))
	}
	return st
}

// agrees reports whether got matches want within tol (relative) on all
// three scalars, and describes the first disagreement.
func (want fieldStats) agrees(got fieldStats, tol float64) error {
	if got.Sites != want.Sites {
		return fmt.Errorf("sites %d, reference %d", got.Sites, want.Sites)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mass", got.Mass, want.Mass},
		{"max speed", got.MaxSpeed, want.MaxSpeed},
		{"mean speed", got.MeanSpeed, want.MeanSpeed},
	} {
		if d := relDiff(c.got, c.want); d > tol || math.IsNaN(c.got) {
			return fmt.Errorf("%s %.12g, reference %.12g (rel %.2g > %.0g)", c.name, c.got, c.want, d, tol)
		}
	}
	return nil
}

func fieldHash(f *field.Field) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, arr := range [][]float64{f.Rho, f.Ux, f.Uy, f.Uz} {
		for _, v := range arr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// domainSpec names a flow problem: preset geometry, scale and the
// cardiac pulse on the first inlet. It is the part of a job the kernel
// leg, the long-running service job and the layer replay share.
type domainSpec struct {
	Preset      string  `json:"preset"`
	Scale       float64 `json:"scale"`
	PulseAmp    float64 `json:"pulse_amp"`
	PulsePeriod float64 `json:"pulse_period"`
}

func (d domainSpec) key(steps int) string {
	return fmt.Sprintf("%s@%g/pulse=%g:%g/steps=%d", d.Preset, d.Scale, d.PulseAmp, d.PulsePeriod, steps)
}

// solverTau is the relaxation time of every run; it equals the
// service's default so in-process and daemon runs of one spec agree.
const solverTau = 0.9

func (d domainSpec) coreConfig(ranks, threads int) (core.Config, error) {
	v, err := geometry.VesselByName(d.Preset, d.Scale)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Vessel: v, H: 1, Tau: solverTau, Ranks: ranks, Threads: threads,
		PulseAmp: d.PulseAmp, PulsePeriod: d.PulsePeriod,
	}, nil
}

// kernelRun is one in-process configuration (ranks × threads) of a
// domain, stepped in fixed-size reps.
type kernelRun struct {
	sim   *core.Simulation
	newS  float64 // wall of core.New
	steps int
	final *core.Snapshot
}

func newKernelRun(d domainSpec, ranks, threads, steps int) (*kernelRun, error) {
	cfg, err := d.coreConfig(ranks, threads)
	if err != nil {
		return nil, err
	}
	k := &kernelRun{steps: steps}
	// A cadence beyond the run publishes exactly one snapshot — the
	// final state, after the last step — so the timed loop does no
	// in situ work and the result can still be checked.
	cfg.SnapshotEvery = steps + 1
	cfg.OnSnapshot = func(s *core.Snapshot) { k.final = s }
	t0 := time.Now()
	k.sim, err = core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("core.New %s ranks=%d: %w", d.Preset, ranks, err)
	}
	k.newS = time.Since(t0).Seconds()
	return k, nil
}

// rep runs the fixed number of steps from the initial state and returns
// million lattice-site updates per second of Run's wall time.
func (k *kernelRun) rep() (float64, error) {
	k.final = nil
	if err := k.sim.Run(k.steps); err != nil {
		return 0, fmt.Errorf("core.Run: %w", err)
	}
	if k.final == nil || k.final.Step != k.steps {
		return 0, fmt.Errorf("core.Run ended without the final snapshot at step %d", k.steps)
	}
	return float64(k.sim.Dom.NumSites()) * float64(k.steps) / k.sim.Elapsed.Seconds() / 1e6, nil
}

func (k *kernelRun) stats() fieldStats {
	f := k.final.Field
	return statsOf(f.Rho, f.Ux, f.Uy, f.Uz, k.steps)
}

// repsFor runs reps until budget is spent (at least two, so a median
// exists) and returns each rep's MLUPS.
func (k *kernelRun) repsFor(budget time.Duration) ([]float64, error) {
	var out []float64
	deadline := time.Now().Add(budget)
	for len(out) < 2 || time.Now().Before(deadline) {
		// Each Run builds a fresh solver; collecting the previous one
		// now keeps a GC cycle (and its mark workers, which take a
		// core the 2-rank run needs) out of the timed steps.
		runtime.GC()
		v, err := k.rep()
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

// references maps domainSpec.key(steps) to the serial run's final-state
// scalars; it lives in testdata/reference.json.
type references map[string]fieldStats

func referencePath(root string) string {
	return filepath.Join(root, "bench", "testdata", "reference.json")
}

func loadReferences(root string) (references, error) {
	data, err := os.ReadFile(referencePath(root))
	if err != nil {
		return nil, fmt.Errorf("reading reference (regenerate with -update-reference): %w", err)
	}
	refs := references{}
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", referencePath(root), err)
	}
	return refs, nil
}

// updateReferences recomputes every reference the given workloads need
// from the plain serial run (1 rank × 1 thread) and rewrites the file.
func updateReferences(root string, wls []workload) error {
	refs := references{}
	for _, w := range wls {
		for _, steps := range []int{w.KernelSteps, w.ResumeSteps} {
			key := w.Domain.key(steps)
			if _, done := refs[key]; done || steps == 0 {
				continue
			}
			k, err := newKernelRun(w.Domain, 1, 1, steps)
			if err != nil {
				return err
			}
			if _, err := k.rep(); err != nil {
				return err
			}
			refs[key] = k.stats()
			fmt.Fprintf(os.Stderr, "reference %s: %+v hash=%016x\n", key, refs[key], fieldHash(k.final.Field))
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath(root), append(data, '\n'), 0o644)
}
