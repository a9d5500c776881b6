package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
)

// cmdVerify runs every workload sets times (tracing off), reversing the
// workload order on every other set, and prints for each end-to-end
// metric on each workload the value per set, the largest relative
// difference between sets and the metric's bound. It fails when any
// difference exceeds its bound: such a metric cannot gate a later
// change at that bound and must get a wider one or be demoted to a
// per-layer metric.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	var o options
	var sets int
	fs.StringVar(&o.root, "root", "", "repository checkout (default: found from the working directory)")
	fs.IntVar(&sets, "sets", 2, "how many times to run the full set")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the first set; set i uses seed+i")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long a run measures")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if sets < 2 {
		return fmt.Errorf("verify needs at least 2 sets, got %d", sets)
	}
	var err error
	if o.root, err = findRoot(o.root); err != nil {
		return err
	}
	// values[workload][metric] holds one value per set.
	values := map[string]map[string][]float64{}
	incorrect := false
	seed0 := o.seed
	for set := 0; set < sets; set++ {
		order := append([]workload(nil), workloads...)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			o.workload, o.seed = w.Name, seed0+int64(set)
			rep, err := runWorkload(context.Background(), o)
			if err != nil {
				return fmt.Errorf("set %d, workload %s: %w", set+1, w.Name, err)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %-13s wall %5.1f s, %d operations, %d failed\n",
				set+1, sets, w.Name, rep.Meta.WallS, rep.Attempted, rep.Failed)
			incorrect = incorrect || !rep.Correct
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
		}
	}
	disagree := 0
	fmt.Printf("%-13s %-22s %-28s %8s %7s\n", "workload", "metric", "value per set", "rel diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vals := values[w.Name][d.Name]
			lo, hi := minMax(vals)
			diff := 0.0
			if lo > 0 {
				diff = (hi - lo) / lo
			}
			verdict := ""
			if diff > d.Bound || lo <= 0 {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-13s %-22s %-28s %7.1f%% %6.0f%%%s\n", w.Name, d.Name, fmt.Sprintf("%.4g", vals), 100*diff, 100*d.Bound, verdict)
		}
	}
	if incorrect {
		return errIncorrect
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric/workload pairs differ between sets by more than their bound", disagree)
	}
	return nil
}
