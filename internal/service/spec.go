// Package service is the multi-tenant layer above the solver: a job
// manager running many core.Simulation instances concurrently behind a
// bounded queue, an HTTP API submitting/steering/observing them, and a
// shared frame cache so N clients polling or streaming the same view
// cost one render per snapshot. It is the serve-many-consumers-from-one-computation shape
// the ROADMAP asks for, layered over the paper's closed steering loop.
package service

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/partition"
)

// JobSpec is the JSON body of a job submission: a geometry preset plus
// the solver and steering knobs hemesim exposes as flags.
type JobSpec struct {
	// Name is an optional human label.
	Name string `json:"name,omitempty"`
	// Preset selects the synthetic vessel: pipe, bend, bifurcation,
	// aneurysm, tree, stenosis.
	Preset string  `json:"preset"`
	Scale  float64 `json:"scale,omitempty"` // default 1
	H      float64 `json:"h,omitempty"`     // lattice spacing, default 1
	Tau    float64 `json:"tau,omitempty"`   // default 0.9
	Ranks  int     `json:"ranks,omitempty"` // simulated MPI ranks, default 1
	// Steps is the number of time steps to run (required).
	Steps int `json:"steps"`
	// Method selects the partitioner (default multilevel).
	Method string `json:"method,omitempty"`
	// VizEvery is deprecated and ignored: a daemon job never renders
	// inside the solver loop — frames are rendered on demand from
	// snapshots. The field is still parsed so existing specs keep
	// decoding.
	VizEvery int `json:"viz_every,omitempty"`
	// SnapshotEvery publishes an immutable field snapshot every N
	// steps — the job's only source of pixels and octrees, feeding
	// /frame, /data and the /stream fan-out. 0 (or omitted) means the
	// default of 16; -1 disables snapshots, and those three endpoints
	// then answer 409 (ErrNoSnapshot).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// CheckpointEvery writes a durable solver checkpoint every N steps
	// when the daemon runs with a data dir. 0 (or omitted) means the
	// daemon's default cadence (-checkpoint-every, 64 unless changed);
	// -1 disables checkpointing for this job — after a restart it
	// re-runs from step 0. Ignored entirely without a data dir.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// PulseAmp/PulsePeriod drive the cardiac inlet waveform.
	PulseAmp    float64 `json:"pulse_amp,omitempty"`
	PulsePeriod float64 `json:"pulse_period,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// withDefaults fills the optional knobs.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	if sp.H == 0 {
		sp.H = 1
	}
	if sp.Tau == 0 {
		sp.Tau = 0.9
	}
	if sp.Ranks == 0 {
		sp.Ranks = 1
	}
	if sp.Method == "" {
		sp.Method = string(partition.MethodMultilevel)
	}
	if sp.SnapshotEvery == 0 {
		sp.SnapshotEvery = 16
	}
	return sp
}

// SnapshotsEnabled reports whether the spec publishes field snapshots
// (assumes withDefaults has run, as it has for any accepted job).
func (sp JobSpec) SnapshotsEnabled() bool { return sp.SnapshotEvery > 0 }

// Validate rejects specs the solver would choke on, before they enter
// the queue. The scale/h bounds matter on a shared daemon: voxel count
// grows as (scale/h)³, so an unbounded spec is a one-request OOM for
// every tenant.
func (sp JobSpec) Validate() error {
	// Non-finite floats sail through range checks (NaN compares false
	// against every bound), so reject them first. JSON cannot encode
	// them, but programmatic submitters (benchmarks, the chaos driver)
	// call Validate directly.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"scale", sp.Scale}, {"h", sp.H}, {"tau", sp.Tau},
		{"pulse_amp", sp.PulseAmp}, {"pulse_period", sp.PulsePeriod},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("service: %s must be finite, got %g", f.name, f.v)
		}
	}
	if _, err := vesselByPreset(sp.Preset, max(sp.Scale, 1)); err != nil {
		return err
	}
	if sp.Steps <= 0 {
		return fmt.Errorf("service: steps must be positive, got %d", sp.Steps)
	}
	if sp.Scale < 0 || sp.Scale > 16 {
		return fmt.Errorf("service: scale %g out of range (0, 16]", sp.Scale)
	}
	if sp.H != 0 && (sp.H < 0.25 || sp.H > 10) {
		return fmt.Errorf("service: lattice spacing %g out of range [0.25, 10]", sp.H)
	}
	h := sp.H
	if h == 0 {
		h = 1
	}
	scale := sp.Scale
	if scale == 0 {
		scale = 1
	}
	if scale/h > 16 {
		return fmt.Errorf("service: resolution scale/h = %g exceeds 16 (domain too large for a shared daemon)", scale/h)
	}
	if sp.Tau < 0 {
		return fmt.Errorf("service: negative tau")
	}
	if sp.Tau != 0 && sp.Tau <= 0.5 {
		return fmt.Errorf("service: tau must exceed 0.5, got %g", sp.Tau)
	}
	if sp.Ranks < 0 || sp.Ranks > 256 {
		return fmt.Errorf("service: ranks out of range: %d", sp.Ranks)
	}
	if sp.SnapshotEvery < -1 {
		return fmt.Errorf("service: snapshot_every %d invalid (N steps, 0 = default, -1 = off)", sp.SnapshotEvery)
	}
	if sp.CheckpointEvery < -1 {
		return fmt.Errorf("service: checkpoint_every %d invalid (N steps, 0 = default, -1 = off)", sp.CheckpointEvery)
	}
	return nil
}

// coreConfig assembles the solver configuration for a validated spec.
func (sp JobSpec) coreConfig() (core.Config, error) {
	sp = sp.withDefaults()
	v, err := vesselByPreset(sp.Preset, sp.Scale)
	if err != nil {
		return core.Config{}, err
	}
	snapEvery := sp.SnapshotEvery
	if snapEvery < 0 {
		snapEvery = 0 // core semantics: 0 disables
	}
	return core.Config{
		Vessel:        v,
		H:             sp.H,
		Tau:           sp.Tau,
		Ranks:         sp.Ranks,
		Method:        partition.Method(sp.Method),
		SnapshotEvery: snapEvery,
		PulseAmp:      sp.PulseAmp,
		PulsePeriod:   sp.PulsePeriod,
		Seed:          sp.Seed,
	}, nil
}

// vesselByPreset resolves the shared preset vocabulary (one table,
// used by hemesim and the service alike).
func vesselByPreset(name string, scale float64) (*geometry.Vessel, error) {
	v, err := geometry.VesselByName(strings.ToLower(name), scale)
	if err != nil {
		return nil, fmt.Errorf("service: unknown preset %q", name)
	}
	return v, nil
}
