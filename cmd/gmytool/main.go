// Command gmytool generates, inspects and visualises the two-level
// sparse geometry files (E2/E8). Subcommands:
//
//	gmytool gen  -vessel aneurysm -h 1.0 -out aneurysm.gmy
//	gmytool info -in aneurysm.gmy
//	gmytool ascii -vessel bifurcation -h 1.0 [-axis y] [-slice N]
//
// The ascii subcommand renders a lattice slice classifying each site
// (bulk fluid, wall-adjacent, inlet, outlet, solid) — the regular
// sparse discretisation of the paper's Fig. 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/geometry"
	"repro/internal/gmy"
	"repro/internal/lattice"
	"repro/internal/vec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmytool:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUsage = errors.New(`usage: gmytool <gen|info|ascii> [flags]
  gen   -vessel <name> -h <spacing> -out <file>   write a geometry file
  info  -in <file>                                print header and block stats
  ascii -vessel <name> -h <spacing> [-axis x|y|z] [-slice N]  lattice slice art`)

// run is the whole tool behind main: args without the program name,
// everything it prints on stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], stdout)
	case "info":
		return runInfo(args[1:], stdout)
	case "ascii":
		return runASCII(args[1:], stdout)
	}
	return errUsage
}

func runGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	vessel := fs.String("vessel", "aneurysm", "vessel name")
	h := fs.Float64("h", 1.0, "lattice spacing")
	scale := fs.Float64("scale", 1.0, "geometry scale factor")
	out := fs.String("out", "vessel.gmy", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v, err := geometry.VesselByName(*vessel, *scale)
	if err != nil {
		return err
	}
	dom, err := geometry.Voxelise(v, *h, lattice.D3Q19())
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gmy.Write(f, dom); err != nil {
		return err
	}
	st, _ := f.Stat()
	fmt.Fprintf(stdout, "%s: %d fluid sites (%.1f%% of %dx%dx%d lattice), %d blocks, %d bytes\n",
		*out, dom.NumSites(), 100*dom.FluidFraction(),
		dom.Dims.X, dom.Dims.Y, dom.Dims.Z, dom.NumBlocks(), st.Size())
	return nil
}

func runInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "", "input file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := gmy.ReadHeader(f)
	if err != nil {
		return err
	}
	var fluid, occupied int
	maxBlock := int32(0)
	for _, c := range h.BlockFluid {
		fluid += int(c)
		if c > 0 {
			occupied++
		}
		if c > maxBlock {
			maxBlock = c
		}
	}
	fmt.Fprintf(stdout, "dims:        %dx%dx%d (spacing %g)\n", h.Dims.X, h.Dims.Y, h.Dims.Z, h.H)
	fmt.Fprintf(stdout, "model:       D3Q%d, block size %d\n", h.ModelQ, h.BlockSize)
	fmt.Fprintf(stdout, "iolets:      %d\n", len(h.Iolets))
	for i, io := range h.Iolets {
		kind := "outlet"
		if io.IsInlet {
			kind = "inlet"
		}
		fmt.Fprintf(stdout, "  [%d] %s r=%.2f p=%.4f at (%.1f,%.1f,%.1f)\n",
			i, kind, io.Radius, io.Pressure, io.Center.X, io.Center.Y, io.Center.Z)
	}
	fmt.Fprintf(stdout, "blocks:      %d total, %d occupied, max %d sites/block\n",
		h.NumBlocks(), occupied, maxBlock)
	fmt.Fprintf(stdout, "fluid sites: %d\n", fluid)
	// Initial balance preview over 8 ranks, the coarse-level use case.
	assign := gmy.InitialBalance(h.BlockFluid, 8)
	fmt.Fprintf(stdout, "coarse balance over 8 ranks: max/mean = %.3f\n",
		gmy.BalanceQuality(h.BlockFluid, assign, 8))
	return nil
}

func runASCII(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ascii", flag.ContinueOnError)
	vessel := fs.String("vessel", "bifurcation", "vessel name")
	h := fs.Float64("h", 1.0, "lattice spacing")
	scale := fs.Float64("scale", 1.0, "geometry scale factor")
	axis := fs.String("axis", "y", "slice normal axis (x|y|z)")
	slice := fs.Int("slice", -1, "slice index (-1 = middle)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v, err := geometry.VesselByName(*vessel, *scale)
	if err != nil {
		return err
	}
	dom, err := geometry.Voxelise(v, *h, lattice.D3Q19())
	if err != nil {
		return err
	}
	art, err := SliceASCII(dom, *axis, *slice)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, art)
	fmt.Fprintln(stdout, "legend: '.' solid  'o' bulk fluid  '#' wall-adjacent  'I' inlet  'O' outlet")
	return nil
}

// SliceASCII renders one lattice slice as text (Fig. 1: the regular
// lattice over a sparse geometry).
func SliceASCII(dom *geometry.Domain, axis string, idx int) (string, error) {
	var n1, n2, n3 int
	var at func(i, j, k int) vec.I3
	switch axis {
	case "x":
		n1, n2, n3 = dom.Dims.Y, dom.Dims.Z, dom.Dims.X
		at = func(i, j, k int) vec.I3 { return vec.I3{X: k, Y: i, Z: j} }
	case "y":
		n1, n2, n3 = dom.Dims.X, dom.Dims.Z, dom.Dims.Y
		at = func(i, j, k int) vec.I3 { return vec.I3{X: i, Y: k, Z: j} }
	case "z":
		n1, n2, n3 = dom.Dims.X, dom.Dims.Y, dom.Dims.Z
		at = func(i, j, k int) vec.I3 { return vec.I3{X: i, Y: j, Z: k} }
	default:
		return "", fmt.Errorf("bad axis %q", axis)
	}
	if idx < 0 {
		idx = n3 / 2
	}
	if idx >= n3 {
		return "", fmt.Errorf("slice %d out of range [0,%d)", idx, n3)
	}
	out := make([]byte, 0, (n1+1)*n2)
	for j := n2 - 1; j >= 0; j-- {
		for i := 0; i < n1; i++ {
			id := dom.SiteAt(at(i, j, idx))
			ch := byte('.')
			if id >= 0 {
				s := &dom.Sites[id]
				switch {
				case s.Flags&geometry.FlagInlet != 0:
					ch = 'I'
				case s.Flags&geometry.FlagOutlet != 0:
					ch = 'O'
				case s.Flags&geometry.FlagWall != 0:
					ch = '#'
				default:
					ch = 'o'
				}
			}
			out = append(out, ch)
		}
		out = append(out, '\n')
	}
	return string(out), nil
}
