// Command hemesim runs the full co-design loop of Fig. 2: voxelise a
// synthetic vessel, partition it across simulated ranks, advance the
// sparse lattice-Boltzmann solver with in situ visualisation, and
// (optionally) serve steering clients.
//
//	hemesim -vessel aneurysm -ranks 8 -steps 2000 -viz-every 100 \
//	        -image out.png -steer 127.0.0.1:7766
//
// Connect with hemesteer while it runs to fetch images and change
// boundary conditions live.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/insitu"
	"repro/internal/partition"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hemesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hemesim", flag.ContinueOnError)
	vessel := fs.String("vessel", "aneurysm", "geometry: pipe, bend, bifurcation, aneurysm, tree")
	scale := fs.Float64("scale", 1.0, "geometry scale factor")
	h := fs.Float64("h", 1.0, "lattice spacing")
	tau := fs.Float64("tau", 0.9, "BGK relaxation time")
	ranks := fs.Int("ranks", 4, "simulated MPI ranks")
	method := fs.String("method", "multilevel", "partitioner: block, morton, rcb, multilevel")
	steps := fs.Int("steps", 1000, "time steps")
	vizEvery := fs.Int("viz-every", 100, "in situ render interval (0 = off)")
	mode := fs.String("mode", "volume", "viz mode: volume, streamlines, lic")
	imgOut := fs.String("image", "", "write the final in situ image here (.png or .ppm)")
	steer := fs.String("steer", "", "steering server address (e.g. 127.0.0.1:7766)")
	repartAt := fs.Int("repartition-at", 0, "viz-aware repartition at this step (0 = off)")
	alpha := fs.Float64("viz-alpha", 1.0, "visualisation weight in the balance equation")
	pulseAmp := fs.Float64("pulse-amp", 0, "sinusoidal inlet density amplitude (0 = steady)")
	pulsePeriod := fs.Float64("pulse-period", 400, "inlet pulse period in steps")
	if err := fs.Parse(args); err != nil {
		return err
	}

	v, err := geometry.VesselByName(*vessel, *scale)
	if err != nil {
		return err
	}
	req := insitu.DefaultRequest()
	switch strings.ToLower(*mode) {
	case "volume":
		req.Mode = insitu.ModeVolume
	case "streamlines":
		req.Mode = insitu.ModeStreamlines
	case "lic":
		req.Mode = insitu.ModeLIC
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	req.Scalar = field.ScalarSpeed

	sim, err := core.New(core.Config{
		Vessel: v, H: *h, Tau: *tau,
		Ranks:          *ranks,
		Method:         partition.Method(*method),
		VizEvery:       *vizEvery,
		VizRequest:     req,
		VizWeightAlpha: *alpha,
		RepartitionAt:  *repartAt,
		SteerAddr:      *steer,
		PulseAmp:       *pulseAmp,
		PulsePeriod:    *pulsePeriod,
	})
	if err != nil {
		return err
	}
	defer sim.Close()

	fmt.Fprintf(stdout, "hemesim: %s, %d fluid sites (%.1f%% of lattice), %d ranks via %s\n",
		v.Name, sim.Dom.NumSites(), 100*sim.Dom.FluidFraction(), *ranks, *method)
	q := partition.Measure(sim.Graph(), sim.Part)
	fmt.Fprintf(stdout, "partition: imbalance %.3f, edge cut %.0f, boundary sites %d\n",
		q.Imbalance, q.EdgeCut, q.Boundary)
	if sim.Server != nil {
		fmt.Fprintf(stdout, "steering server listening on %s\n", sim.Server.Addr())
	}

	t0 := time.Now()
	if err := sim.Run(*steps); err != nil {
		return err
	}
	el := time.Since(t0)
	updates := float64(sim.Dom.NumSites()) * float64(sim.StepsDone)
	fmt.Fprintf(stdout, "ran %d steps in %s (%.2f Msite-updates/s), halo bytes %d\n",
		sim.StepsDone, el.Round(time.Millisecond), updates/el.Seconds()/1e6, sim.HaloBytes)
	if sim.Repartition != nil {
		fmt.Fprintf(stdout, "repartitioned at step %d: imbalance %.3f -> %.3f, migrated %d sites\n",
			sim.Repartition.Step, sim.Repartition.ImbalanceBefore,
			sim.Repartition.ImbalanceAfter, sim.Repartition.Migrated)
	}

	if *imgOut != "" && sim.LastImage != nil {
		f, err := os.Create(*imgOut)
		if err != nil {
			return err
		}
		if strings.HasSuffix(*imgOut, ".ppm") {
			err = sim.LastImage.EncodePPM(f)
		} else {
			err = sim.LastImage.EncodePNG(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%dx%d)\n", *imgOut, sim.LastImage.W, sim.LastImage.H)
	}
	return nil
}
