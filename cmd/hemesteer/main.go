// Command hemesteer is the steering client of Fig. 2: it connects to a
// running hemesim, fetches status and rendered images, and changes
// simulation parameters live.
//
//	hemesteer -addr 127.0.0.1:7766 status
//	hemesteer -addr 127.0.0.1:7766 image -out frame.png -mode streamlines
//	hemesteer -addr 127.0.0.1:7766 set-iolet -iolet 0 -density 1.02
//	hemesteer -addr 127.0.0.1:7766 pause|resume|quit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/field"
	"repro/internal/insitu"
	"repro/internal/steering"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hemesteer:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: hemesteer -addr HOST:PORT <status|image|set-iolet|pause|resume|quit> [flags]")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hemesteer", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7766", "steering server address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return errUsage
	}
	cl, err := steering.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	cmd := fs.Arg(0)
	rest := fs.Args()[1:]
	switch cmd {
	case "status":
		st, err := cl.Status()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "step:        %d / %d\n", st.Step, st.TotalSteps)
		fmt.Fprintf(stdout, "sites:       %d on %d ranks\n", st.NumSites, st.Ranks)
		fmt.Fprintf(stdout, "rate:        %.3g site-updates/s\n", st.SitesPerSec)
		fmt.Fprintf(stdout, "remaining:   %.1fs (estimate)\n", st.RemainingSec)
		fmt.Fprintf(stdout, "paused:      %v\n", st.Paused)
		fmt.Fprintf(stdout, "comm:        %d bytes, per-rank imbalance %.2f\n", st.CommBytes, st.LoadImbalance)
	case "image":
		fs := flag.NewFlagSet("image", flag.ContinueOnError)
		out := fs.String("out", "frame.png", "output PNG file")
		w := fs.Int("w", 256, "width")
		h := fs.Int("h", 192, "height")
		mode := fs.String("mode", "volume", "volume, streamlines, lic")
		az := fs.Float64("azimuth", 0.5, "camera azimuth (rad)")
		el := fs.Float64("elevation", 0.3, "camera elevation (rad)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		req := insitu.DefaultRequest()
		req.W, req.H = *w, *h
		req.Azimuth, req.Elevation = *az, *el
		req.Scalar = field.ScalarSpeed
		switch *mode {
		case "volume":
			req.Mode = insitu.ModeVolume
		case "streamlines":
			req.Mode = insitu.ModeStreamlines
		case "lic":
			req.Mode = insitu.ModeLIC
		default:
			return fmt.Errorf("unknown mode %q", *mode)
		}
		png, gw, gh, err := cl.RequestImage(req)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, png, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%dx%d, %d bytes)\n", *out, gw, gh, len(png))
	case "set-iolet":
		fs := flag.NewFlagSet("set-iolet", flag.ContinueOnError)
		iolet := fs.Int("iolet", 0, "iolet index")
		density := fs.Float64("density", 1.01, "imposed boundary density")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if err := cl.SetIoletDensity(*iolet, *density); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "iolet %d density set to %g\n", *iolet, *density)
	case "pause":
		if err := cl.Pause(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "paused")
	case "resume":
		if err := cl.Resume(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "resumed")
	case "quit":
		if err := cl.Quit(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "simulation asked to quit")
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}
