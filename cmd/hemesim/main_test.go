package main

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke boots the whole binary at a tiny size: two ranks step an
// aneurysm, render in the loop through viz.RenderVolumeDist and leave
// the last merged frame behind as a PNG of the requested size with
// something drawn on it.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "frame.png")
	var stdout bytes.Buffer
	args := []string{"-vessel", "aneurysm", "-ranks", "2", "-steps", "8", "-viz-every", "4", "-image", out}
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 ranks via multilevel", "ran 8 steps", "wrote " + out + " (128x96)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != 128 || b.Dy() != 96 {
		t.Fatalf("image is %dx%d, want 128x96", b.Dx(), b.Dy())
	}
	lit := 0
	for y := 0; y < 96; y++ {
		for x := 0; x < 128; x++ {
			if r, g, b, _ := img.At(x, y).RGBA(); r|g|b != 0 {
				lit++
			}
		}
	}
	if lit < 128*96/100 {
		t.Errorf("%d of %d pixels drawn: the in-loop frame is blank", lit, 128*96)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{{"-compare"}, {"-mode", "holograms"}, {"-vessel", "teapot"}} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
