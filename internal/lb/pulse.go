package lb

import "math"

// Pulse is a sinusoidal iolet-density modulation: the imposed density
// becomes base + Amp*sin(2π step/Period). Cardiac inflow wave-forms
// are the paper's motivating unsteadiness; pathlines and streak-lines
// only differ from streamlines in such flows.
type Pulse struct {
	Amp    float64
	Period float64
}

// effectiveIoletRho returns the imposed density of an iolet at the
// given time step, including any pulse.
func effectiveIoletRho(base float64, p *Pulse, step int) float64 {
	if p == nil {
		return base
	}
	return base + p.Amp*math.Sin(2*math.Pi*float64(step)/p.Period)
}
