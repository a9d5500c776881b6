package viz

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/vec"
)

// WallOptions configures the wall-shear-stress surface rendering —
// "wall stress distributions" are the first physiologically relevant
// data set the paper names (§I), so they get a dedicated renderer:
// wall-adjacent sites are splatted as shaded, depth-tested discs
// coloured by WSS magnitude.
type WallOptions struct {
	W, H   int
	Camera *vec.Camera
	TF     *render.TransferFunction
	// SplatRadius is the disc radius in pixels at unit depth scale
	// (default 1.6; scaled inversely with view depth).
	SplatRadius float64
	// LightDir is the direction towards the light (default towards the
	// camera).
	LightDir vec.V3
}

func (o WallOptions) withDefaults() WallOptions {
	if o.SplatRadius == 0 {
		o.SplatRadius = 1.6
	}
	return o
}

func (o WallOptions) validate() error {
	if o.W <= 0 || o.H <= 0 {
		return fmt.Errorf("viz: wall image size %dx%d", o.W, o.H)
	}
	if o.Camera == nil || o.TF == nil {
		return fmt.Errorf("viz: wall render needs camera and transfer function")
	}
	return nil
}

// RenderWallWSS splats the wall-adjacent sites of the field's domain,
// coloured by wall shear stress through the transfer function and
// Lambert-shaded by the wall normal. With an Owned mask, only owned
// wall sites are drawn (each rank renders its own wall patch).
func RenderWallWSS(f *field.Field, opt WallOptions) (*render.Image, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.WSS == nil {
		return nil, fmt.Errorf("viz: wall render needs a WSS field")
	}
	img := render.NewImage(opt.W, opt.H)
	light := opt.LightDir
	if light.Len2() == 0 {
		light = opt.Camera.Eye.Sub(opt.Camera.Target).Norm()
	} else {
		light = light.Norm()
	}
	dom := f.Dom
	for id, site := range dom.Sites {
		if site.Flags&geometry.FlagWall == 0 {
			continue
		}
		if f.Owned != nil && !f.Owned[id] {
			continue
		}
		p := site.Pos.F()
		px, depth, ok := project(opt.Camera, p, opt.W, opt.H)
		if !ok {
			continue
		}
		c := opt.TF.Map(f.WSS[id])
		// Lambert shading against the outward normal; keep a floor so
		// back-facing patches stay visible in context.
		shade := 0.35 + 0.65*math.Max(0, site.WallNormal.Dot(light))
		c.R *= shade
		c.G *= shade
		c.B *= shade
		c.A = 1
		// Splat radius shrinks with depth (cheap perspective cue).
		r := opt.SplatRadius * float64(opt.H) / (depth + 1) * 0.25
		if r < 0.5 {
			r = 0.5
		}
		splat(img, int(px.X), int(px.Y), r, c, depth)
	}
	return img, nil
}

// splat draws a depth-tested filled disc.
func splat(img *render.Image, cx, cy int, r float64, c render.RGBA, depth float64) {
	ri := int(r + 0.999)
	for dy := -ri; dy <= ri; dy++ {
		for dx := -ri; dx <= ri; dx++ {
			if float64(dx*dx+dy*dy) > r*r {
				continue
			}
			x, y := cx+dx, cy+dy
			if x < 0 || y < 0 || x >= img.W || y >= img.H {
				continue
			}
			img.Blend(x, y, c, depth)
		}
	}
}

// RenderWallWSSDist renders each rank's wall patch and merges
// depth-correctly at rank 0 — same sort-last structure as the volume
// renderer, so it inherits the "low" communication class.
func RenderWallWSSDist(comm *par.Comm, f *field.Field, opt WallOptions) (*render.Image, error) {
	img, err := RenderWallWSS(f, opt)
	if err != nil {
		return nil, err
	}
	return compositeToRoot(comm, img)
}
