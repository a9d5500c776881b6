// Multi-resolution exploration — §V of the paper: cache the simulation
// fields in an octree, then explore them the way an interactive
// steering client would: start from a coarse context view, pick a
// region of interest (the aneurysm sac), and refine only there,
// comparing the data volume each request ships.
package main

import (
	"fmt"
	"log"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/octree"
	"repro/internal/vec"
)

func main() {
	dom, err := geometry.Voxelise(geometry.Aneurysm(20, 3.5, 5), 1.0, lattice.D3Q19())
	if err != nil {
		log.Fatal(err)
	}
	solver, err := lb.New(dom, lb.Params{Tau: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	solver.Advance(600)
	rho, ux, uy, uz, wss := solver.Fields(nil, nil, nil, nil, nil)

	tree, err := octree.Build(dom, octree.Fields{Rho: rho, Ux: ux, Uy: uy, Uz: uz, WSS: wss})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("octree over %d fluid sites: %d levels\n", dom.NumSites(), tree.Depth())
	for l := 0; l < tree.Depth(); l++ {
		fmt.Printf("  level %d: %6d cells (resolution 1/%d)\n", l, tree.NodeCount(l), 1<<l)
	}

	// Every view below is a /data reply: asked for with the client's
	// (min, max, detail, context), received as bytes, decoded.
	dims := dom.Dims.F()
	full := tree.Answer(dims, vec.V3{}, vec.V3{}, 0, 0).Size()
	fmt.Printf("\nfull-resolution reply: %d bytes\n", full)

	// Step 1: the context view — everything at a coarse level.
	ctxLevel := min(3, tree.Depth()-1)
	msg := tree.Answer(dims, vec.V3{}, vec.V3{}, ctxLevel, ctxLevel).Bytes()
	ctx, err := octree.DecodeNodes(msg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("context view (level %d): %d cells, %d bytes (%.1f%% of full)\n",
		ctxLevel, len(ctx), len(msg), 100*float64(len(msg))/float64(full))

	// Step 2: the user outlines the sac as the region of interest.
	// Find it as the region of maximal WSS at the context level.
	var hot *octree.Node
	for _, n := range ctx {
		if hot == nil || n.MaxWSS > hot.MaxWSS {
			hot = n
		}
	}
	roiBox := hot.Box().Expand(2)
	fmt.Printf("\nROI chosen around the peak-WSS context cell at %v\n", hot.Origin())

	// Step 3: context + detail query.
	msg = tree.Answer(dims, roiBox.Min, roiBox.Max, 0, ctxLevel).Bytes()
	nodes, err := octree.DecodeNodes(msg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("context+detail query: %d cells, %d bytes (%.1f%% of full)\n",
		len(nodes), len(msg), 100*float64(len(msg))/float64(full))
	covered := 0
	for _, n := range nodes {
		covered += n.Count
	}
	if covered != dom.NumSites() {
		log.Fatalf("query cover mismatch: %d vs %d sites", covered, dom.NumSites())
	}
	fmt.Println("\nthe reduced stream is what an exascale run would ship to the")
	fmt.Println("steering client instead of the raw fields (paper, §V).")
}
