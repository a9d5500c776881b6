package octree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/geometry"
	"repro/internal/vec"
)

// leafTree is a tree the way Build made it while every leaf was a Node
// of its own: levels[0] holds the sites in Z-order, firstChild[l][i] is
// where the children of cell i of level l start in the level below. It
// is what the oracles below build and query.
type leafTree struct {
	levels     [][]Node
	firstChild [][]int32
}

// buildLeaves is Build before the leaves were read from the fields: it
// copies every site into a leaf Node along the kept layout, then folds
// each level from the one below. It is the oracle of the leafless
// Build, node for node.
func buildLeaves(dom *geometry.Domain, f Fields) (*leafTree, error) {
	n := dom.NumSites()
	if len(f.Rho) != n || len(f.Ux) != n || len(f.Uy) != n || len(f.Uz) != n {
		return nil, fmt.Errorf("octree: field lengths must equal %d sites", n)
	}
	if f.WSS != nil && len(f.WSS) != n {
		return nil, fmt.Errorf("octree: WSS length %d != %d", len(f.WSS), n)
	}
	lay := layoutOf(dom)
	depth := len(lay.keys)
	t := &leafTree{levels: make([][]Node, depth), firstChild: lay.firstChild}

	leaves := make([]Node, n)
	for at, i := range lay.site {
		wss := 0.0
		if f.WSS != nil {
			wss = f.WSS[i]
		}
		leaves[at] = Node{
			Level:   0,
			Key:     lay.keys[0][at],
			Count:   1,
			MeanRho: f.Rho[i],
			MeanU:   vec.New(f.Ux[i], f.Uy[i], f.Uz[i]),
			MaxWSS:  wss,
			MeanWSS: wss,
		}
	}
	t.levels[0] = leaves

	for l := 1; l < depth; l++ {
		kids := t.levels[l-1]
		first := lay.firstChild[l]
		level := make([]Node, len(lay.keys[l]))
		for i := range level {
			p := &level[i]
			p.Level, p.Key = l, lay.keys[l][i]
			for c := first[i]; c < first[i+1]; c++ {
				child := &kids[c]
				w := float64(child.Count)
				pw := float64(p.Count)
				tot := pw + w
				p.MeanRho = (p.MeanRho*pw + child.MeanRho*w) / tot
				p.MeanU = p.MeanU.Mul(pw / tot).Add(child.MeanU.Mul(w / tot))
				p.MeanWSS = (p.MeanWSS*pw + child.MeanWSS*w) / tot
				if child.MaxWSS > p.MaxWSS {
					p.MaxWSS = child.MaxWSS
				}
				p.Count += child.Count
			}
		}
		t.levels[l] = level
	}
	return t, nil
}

// query is the node-list Query before covers were runs: it descends
// every cell that meets the box down to the detail level, one node at
// a time. It is the oracle of the cover Encode, WriteTo and Bytes
// produce.
func (t *leafTree) query(roi ROI) ([]*Node, error) {
	if roi.DetailLevel < 0 || roi.ContextLevel >= len(t.levels) || roi.DetailLevel > roi.ContextLevel {
		return nil, fmt.Errorf("octree: invalid ROI levels detail=%d context=%d depth=%d",
			roi.DetailLevel, roi.ContextLevel, len(t.levels))
	}
	var out []*Node
	if top := len(t.levels) - 1; len(t.levels[top]) > 0 {
		t.cover(&roi, top, 0, func(n *Node) { out = append(out, n) })
	}
	return out, nil
}

func (t *leafTree) cover(roi *ROI, level, i int, fn func(*Node)) {
	n := &t.levels[level][i]
	if level <= roi.DetailLevel || (level <= roi.ContextLevel && !boxesIntersect(n.Box(), roi.Box)) {
		fn(n)
		return
	}
	first := t.firstChild[level]
	for c := int(first[i]); c < int(first[i+1]); c++ {
		t.cover(roi, level-1, c, fn)
	}
}

// decodeNodesOld is DecodeNodes before it parsed the stream in place:
// one heap node and nine reads per node. It is the oracle of
// DecodeNodes. The only change is the capacity it reserves, capped at
// what the stream can hold, so a fuzzed count does not allocate half a
// gigabyte of pointers before failing; that changes no result.
func decodeNodesOld(data []byte) ([]*Node, error) {
	r := bytes.NewReader(data)
	var tmp [8]byte
	le := binary.LittleEndian
	if _, err := io.ReadFull(r, tmp[:4]); err != nil {
		return nil, fmt.Errorf("octree: node stream header: %w", err)
	}
	count := int(le.Uint32(tmp[:4]))
	const maxNodes = 1 << 26
	if count < 0 || count > maxNodes {
		return nil, fmt.Errorf("octree: implausible node count %d", count)
	}
	getF32 := func() (float64, error) {
		if _, err := io.ReadFull(r, tmp[:4]); err != nil {
			return 0, err
		}
		return float64(math.Float32frombits(le.Uint32(tmp[:4]))), nil
	}
	nodes := make([]*Node, 0, min(count, r.Len()/nodeBytes))
	for i := 0; i < count; i++ {
		n := &Node{}
		lvl, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("octree: node %d: %w", i, err)
		}
		n.Level = int(lvl)
		if _, err := io.ReadFull(r, tmp[:8]); err != nil {
			return nil, fmt.Errorf("octree: node %d key: %w", i, err)
		}
		n.Key = le.Uint64(tmp[:8])
		if _, err := io.ReadFull(r, tmp[:4]); err != nil {
			return nil, fmt.Errorf("octree: node %d count: %w", i, err)
		}
		n.Count = int(le.Uint32(tmp[:4]))
		fields := [6]*float64{&n.MeanRho, &n.MeanU.X, &n.MeanU.Y, &n.MeanU.Z, &n.MaxWSS, &n.MeanWSS}
		for _, fp := range fields {
			v, err := getF32()
			if err != nil {
				return nil, fmt.Errorf("octree: node %d fields: %w", i, err)
			}
			*fp = v
		}
		nodes = append(nodes, n)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("octree: %d trailing bytes in node stream", r.Len())
	}
	return nodes, nil
}

// pointers returns a pointer to each node of a slab.
func pointers(slab []Node) []*Node {
	out := make([]*Node, len(slab))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

// onWire returns n as a reply carries it: its fields rounded to
// float32.
func onWire(n *Node) *Node {
	r := func(v float64) float64 { return float64(float32(v)) }
	return &Node{
		Level: n.Level, Key: n.Key, Count: n.Count,
		MeanRho: r(n.MeanRho), MeanU: vec.New(r(n.MeanU.X), r(n.MeanU.Y), r(n.MeanU.Z)),
		MaxWSS: r(n.MaxWSS), MeanWSS: r(n.MeanWSS),
	}
}
