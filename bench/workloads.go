package main

import "repro/internal/service"

// workload is one set of inputs to the session (see session.go): every
// workload runs the same rounds and reports the same metrics; what
// varies is the domain, and whether the store is in the path and where
// checkpoints are taken.
type workload struct {
	Name string
	Why  string
	// Domain is the flow problem of the kernel leg, of the long-running
	// job the view leg watches, and of the layer replay.
	Domain domainSpec
	// KernelSteps is the fixed work of one in-process rep.
	KernelSteps int
	// LongSteps is the length of the job each round runs to completion
	// on the workload's domain through the daemon: about as long as a rep.
	LongSteps int
	// Store runs the daemon with -data-dir (journal, checkpoints).
	Store bool
	// BurstCkpt / LongCkpt are the checkpoint_every of the short burst
	// jobs and of the jobs on the workload's domain (-1 = off; ignored
	// without Store).
	BurstCkpt, LongCkpt int
	// FrameW × FrameH is the size of every frame a viewer asks for.
	FrameW, FrameH int
	// ResumeSteps > 0 adds the kill -9 / restart / bit-exact-resume
	// check: two durable jobs of that many steps, killed past half way.
	ResumeSteps int
}

// pulsedAneurysm is the small domain two of the three workloads share,
// so that ckpt-long differs from kernel-small in the store only and
// kernel-small is its bypass pair.
var pulsedAneurysm = domainSpec{Preset: "aneurysm", Scale: 2.0, PulseAmp: 0.005, PulsePeriod: 400}

var workloads = []workload{
	{
		Name:   "kernel-large",
		Why:    "79746-site tree: f+fNew 24 MB, beyond the 2 MiB per-core L2 (inside the 260 MiB L3) - bytes-per-update changes show here; snapshots, renders and octrees are 8x larger.",
		Domain: domainSpec{Preset: "tree", Scale: 3.0}, KernelSteps: 24, LongSteps: 40,
		BurstCkpt: -1, LongCkpt: -1, FrameW: 256, FrameH: 192,
	},
	{
		Name:   "kernel-small",
		Why:    "10068-site pulsed aneurysm, 3 MB: instruction- and indirection-bound, halo-to-compute ratio 6x higher; no store anywhere - the bypass pair of ckpt-long.",
		Domain: pulsedAneurysm, KernelSteps: 200, LongSteps: 400,
		BurstCkpt: -1, LongCkpt: -1, FrameW: 256, FrameH: 192,
	},
	{
		Name:   "ckpt-long",
		Why:    "kernel-small plus -data-dir: a journal commit under every submit, checkpoint_every 16 on the burst jobs and 100 on the 400-step jobs (fulls + deltas), then kill -9, restart and resume.",
		Domain: pulsedAneurysm, KernelSteps: 200, LongSteps: 400, Store: true,
		BurstCkpt: 16, LongCkpt: 100, FrameW: 256, FrameH: 192, ResumeSteps: 2400,
	},
}

// quick shrinks a workload to smoke-test size: the same legs and code
// paths on a domain eight times smaller.
func (w workload) quick() workload {
	w.Domain.Scale /= 2
	w.KernelSteps = 64
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// burstPresets are the geometries a burst job draws from, at scale 1.
var burstPresets = []string{"pipe", "bend", "bifurcation", "aneurysm"}

const burstSteps = 64

// burstSpec is one short job of the burst leg: no in situ work, so
// pre-processing, the journal, the scheduler and HTTP are what is left
// beside 64 solver steps.
func (w workload) burstSpec(preset string) service.JobSpec {
	return service.JobSpec{
		Preset: preset, Scale: 1, Steps: burstSteps,
		VizEvery: -1, SnapshotEvery: -1, CheckpointEvery: w.BurstCkpt,
	}
}

// longSpec is a job of the given length on the workload's domain that
// publishes snapshots on demand (cadence 16) and renders nothing
// unattended.
func (w workload) longSpec(steps int) service.JobSpec {
	return service.JobSpec{
		Preset: w.Domain.Preset, Scale: w.Domain.Scale, Steps: steps,
		PulseAmp: w.Domain.PulseAmp, PulsePeriod: w.Domain.PulsePeriod,
		VizEvery: -1, SnapshotEvery: 16, CheckpointEvery: w.LongCkpt,
	}
}
