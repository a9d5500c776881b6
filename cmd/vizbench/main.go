// Command vizbench regenerates the paper's Table I: the comparison of
// the four in situ visualisation techniques (volume rendering, line
// integrals, particle tracing, LIC) on communication cost, load
// balance and ease of parallelisation, measured on simulated ranks
// over a developed aneurysm flow. It also prints the Fig. 3 pipeline
// stage timings (E4).
//
// Like scalebench it reproduces paper tables (kind: modelled), not
// wall-clock evidence: that is a paired run of bash bench/run.sh.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "vizbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vizbench", flag.ContinueOnError)
	ranks := fs.Int("ranks", 8, "simulated MPI ranks")
	w := fs.Int("w", 96, "image width")
	h := fs.Int("h", 72, "image height")
	steps := fs.Int("steps", 400, "flow development steps")
	seeds := fs.Int("seeds", 16, "line/particle seeds")
	trace := fs.Int("trace", 120, "particle tracer steps")
	scale := fs.Float64("scale", 1.0, "geometry scale")
	pipeline := fs.Bool("pipeline", true, "also print Fig. 3 pipeline stage timings")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "kind: modelled (counted communication over simulated ranks; 'wall' and the stage timings are single-shot, informational)")
	fmt.Fprintln(stdout, "== Table I: visualisation techniques at scale (E1) ==")
	rows, err := experiments.TableI(experiments.TableIConfig{
		Ranks: *ranks, ImageW: *w, ImageH: *h,
		Steps: *steps, Seeds: *seeds, TraceSteps: *trace, Scale: *scale,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.FormatTableI(rows))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "reading the table: 'comm bytes' at base scale, 'comm@2.4x' on a ~2.4x-larger")
	fmt.Fprintln(stdout, "domain; flat growth = image-bound (paper: low), rising growth = data-bound")
	fmt.Fprintln(stdout, "(paper: high). 'messages' shows per-step synchronisation frequency.")

	if *pipeline {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "== Fig. 3: in situ pipeline stage timings (E4) ==")
		prs, err := experiments.PipelineTiming(*steps)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatPipeline(prs))
	}
	return nil
}
