package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// Data dirs written before the journal became the only spec/state
// format kept each job's spec and lifecycle record in CRC-trailed
// sidecar files, jobs/<id>/spec.json and jobs/<id>/state.json, each
// `<JSON>\n#crc64:<16 hex>\n`. OpenFS imports them into the index
// before folding the journal over it (so a journal record for the same
// id wins, as the replay that wrote them ordered it) and deletes them
// once the compacted journal holding them is durable. This is the only
// reader of that format left.

const (
	legacySpecFile  = "spec.json"
	legacyStateFile = "state.json"
	legacyCRCSep    = "\n#crc64:"
)

// importSidecars returns the index the sidecars describe and the paths
// of every sidecar found. A spec without a state record is the remnant
// of a submit that never got its 201 and is not imported; a sidecar
// that cannot be read or fails its CRC fails the open.
func (s *Store) importSidecars() (index, []string, error) {
	ix := index{}
	specs, err := s.fs.Glob(filepath.Join(s.root, "jobs", "*", legacySpecFile))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	states, err := s.fs.Glob(filepath.Join(s.root, "jobs", "*", legacyStateFile))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, path := range specs {
		spec, err := s.readSidecar(path)
		if err != nil {
			return nil, nil, err
		}
		statePath := filepath.Join(filepath.Dir(path), legacyStateFile)
		raw, err := s.readSidecar(statePath)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		var rec JobRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, fmt.Errorf("store: %s: %w", statePath, err)
		}
		ix[filepath.Base(filepath.Dir(path))] = entry{spec: spec, state: rec}
	}
	return ix, append(specs, states...), nil
}

// readSidecar reads one sidecar file and returns its CRC-verified
// payload.
func (s *Store) readSidecar(path string) ([]byte, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	payload, ok := splitCRC(data, legacyCRCSep)
	if !ok {
		return nil, fmt.Errorf("store: %s: missing or mismatched integrity trailer", path)
	}
	return payload, nil
}
