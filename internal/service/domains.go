package service

import "strings"

// domainKey names a voxelised geometry by everything a JobSpec feeds
// geometry.Voxelise: jobs with equal keys get the same Domain, shared
// read-only through the manager's domain lru. What jobs derive from the
// geometry alone (the stream table, the octree layout) rides the Domain
// itself (geometry.Domain.Derive) and goes when its entry is dropped;
// nothing per job (graph, populations) is kept with it.
type domainKey struct {
	preset   string // lower case, as vesselByPreset resolves it
	scale, h float64
}

func (sp JobSpec) domainKey() domainKey {
	sp = sp.withDefaults()
	return domainKey{preset: strings.ToLower(sp.Preset), scale: sp.Scale, h: sp.H}
}
