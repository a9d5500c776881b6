// Command scalebench reproduces the scaling study (E7, the §II
// reference to Groen et al.'s 32k-core HemeLB runs): strong and weak
// scaling of the distributed sparse LBM solver over simulated ranks,
// with exactly counted halo communication and a modelled interconnect.
// It also prints the pre-processing sweeps: the two-level geometry
// read (E8), the partitioner comparison, and viz-aware repartitioning
// (E9), plus the multi-resolution reduction table (E10).
//
// Every number it emits is a model or an exact count over simulated
// ranks, never wall-clock evidence: a wall-clock claim about this
// repository is a paired parent/change run of bash bench/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// runMeta stamps a -json report with the environment it ran in: the
// calibrated per-site compute term of the model, and the single-shot
// host timings, are this machine's.
type runMeta struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Ranks      string  `json:"ranks"`
	Steps      int     `json:"steps"`
	Scale      float64 `json:"scale"`
}

// jsonPoint is one machine-readable point of the modelled scaling curve.
type jsonPoint struct {
	Ranks         int     `json:"ranks"`
	Sites         int     `json:"sites"`
	SitesPerSec   float64 `json:"sites_per_sec"`
	HaloImbalance float64 `json:"halo_imbalance"`
	Speedup       float64 `json:"speedup"`
	Efficiency    float64 `json:"efficiency"`
	StepTimeNs    int64   `json:"step_time_ns"`
	HaloBytes     int64   `json:"halo_bytes"`
}

// Snake-case mirrors of the pre-sweep rows so the whole report keeps
// one key convention and explicit units.
type jsonGmyRead struct {
	Ranks      int     `json:"ranks"`
	Readers    int     `json:"readers"`
	WallNs     int64   `json:"wall_ns"`
	DistBytes  int64   `json:"dist_bytes"`
	BalanceMax float64 `json:"balance_max"`
}

type jsonPartitioner struct {
	Method    string  `json:"method"`
	WallNs    int64   `json:"wall_ns"`
	EdgeCut   float64 `json:"edge_cut"`
	Imbalance float64 `json:"imbalance"`
	Boundary  int     `json:"boundary"`
}

type jsonRepartition struct {
	Alpha           float64 `json:"alpha"`
	ImbalanceBefore float64 `json:"imbalance_before"`
	ImbalanceAfter  float64 `json:"imbalance_after"`
	MigratedSites   int     `json:"migrated_sites"`
	MigrationShare  float64 `json:"migration_share"`
}

type jsonMultires struct {
	Label        string  `json:"label"`
	Nodes        int     `json:"nodes"`
	Bytes        int     `json:"bytes"`
	ReductionPct float64 `json:"reduction_pct"`
	QueryNs      int64   `json:"query_ns"`
}

func toJSONPoints(rows []experiments.ScalingRow) []jsonPoint {
	pts := make([]jsonPoint, 0, len(rows))
	for _, r := range rows {
		p := jsonPoint{
			Ranks:         r.Ranks,
			Sites:         r.Sites,
			HaloImbalance: r.HaloImbalance,
			Speedup:       r.Speedup,
			Efficiency:    r.Efficiency,
			StepTimeNs:    r.StepTime.Nanoseconds(),
			HaloBytes:     r.HaloBytes,
		}
		if s := r.StepTime.Seconds(); s > 0 {
			p.SitesPerSec = float64(r.Sites) / s
		}
		pts = append(pts, p)
	}
	return pts
}

// hostTimedNote labels the report's few host-timed columns so nobody
// reads them as evidence next to the modelled and counted ones.
const hostTimedNote = "gmy_read.wall_ns, partitioners.wall_ns and multires.query_ns are single-shot host timings, informational only"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scalebench", flag.ContinueOnError)
	ranksFlag := fs.String("ranks", "1,2,4,8,16,32,64", "rank counts to sweep")
	steps := fs.Int("steps", 20, "solver steps per point")
	scale := fs.Float64("scale", 1.2, "geometry scale")
	weak := fs.Bool("weak", true, "also run weak scaling")
	pre := fs.Bool("pre", true, "also run pre-processing sweeps (E8/E9/E10)")
	jsonOut := fs.String("json", "", "write machine-readable results to this file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ranks []int
	for _, s := range strings.Split(*ranksFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad rank count %q", s)
		}
		ranks = append(ranks, v)
	}
	cfg := experiments.ScalingConfig{RankCounts: ranks, Steps: *steps, Scale: *scale}

	fmt.Fprintln(stdout, "== E7: strong scaling ==")
	rows, err := experiments.StrongScaling(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.FormatScaling(rows, false))

	report := map[string]any{
		"bench":      "scalebench",
		"kind":       "modelled",
		"host_timed": hostTimedNote,
		"steps":      cfg.Steps,
		"scale":      cfg.Scale,
		"meta": runMeta{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Ranks:      *ranksFlag,
			Steps:      cfg.Steps,
			Scale:      cfg.Scale,
		},
		"strong": toJSONPoints(rows),
	}

	if *weak {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "== E7: weak scaling ==")
		wcfg := cfg
		if len(wcfg.RankCounts) > 4 {
			wcfg.RankCounts = wcfg.RankCounts[:4] // weak sweep grows the domain
		}
		wrows, err := experiments.WeakScaling(wcfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatScaling(wrows, true))
		report["weak"] = toJSONPoints(wrows)
	}

	if *pre {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "== E8: two-level geometry read (reader-subset sweep) ==")
		grows, err := experiments.GmyReadSweep(8, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatGmyRead(grows))
		gj := make([]jsonGmyRead, 0, len(grows))
		for _, r := range grows {
			gj = append(gj, jsonGmyRead{r.Ranks, r.Readers, r.Wall.Nanoseconds(), r.DistBytes, r.BalanceMax})
		}
		report["gmy_read"] = gj

		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "== partitioner comparison (ParMETIS role) ==")
		prows, err := experiments.PartitionerComparison(8, *scale)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatPartitioners(prows))
		pj := make([]jsonPartitioner, 0, len(prows))
		for _, r := range prows {
			pj = append(pj, jsonPartitioner{string(r.Method), r.Wall.Nanoseconds(), r.EdgeCut, r.Imbalance, r.Boundary})
		}
		report["partitioners"] = pj

		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "== E9: visualisation-aware repartitioning ==")
		rrows, err := experiments.RepartitionSweep(8, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatRepartition(rrows))
		rj := make([]jsonRepartition, 0, len(rrows))
		for _, r := range rrows {
			rj = append(rj, jsonRepartition{r.Alpha, r.ImbalanceBefore, r.ImbalanceAfter, r.MigratedSites, r.MigrationShare})
		}
		report["repartition"] = rj

		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "== E10: multi-resolution reduction ==")
		mrows, err := experiments.MultiresSweep()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatMultires(mrows))
		mj := make([]jsonMultires, 0, len(mrows))
		for _, r := range mrows {
			mj = append(mj, jsonMultires{r.Label, r.Nodes, r.Bytes, r.ReductionPct, r.QueryTime.Nanoseconds()})
		}
		report["multires"] = mj
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			_, err = stdout.Write(data)
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *jsonOut)
	}
	return nil
}
