package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/lb"
)

// Checkpoint chains: alongside the full checkpoint (checkpoint.bin, the
// "lbcq" format) a job may carry delta records checkpoint.dNNNN.bin
// ("lbcd", docs/CHECKPOINT_FORMAT.md) that each advance the state by
// only the site-tiles that changed. The chain is self-verifying — every
// delta names its predecessor's CRC64 trailer and a strictly greater
// step — so loading walks the longest valid prefix and ignores
// everything after the first gap, corruption, or mis-link. Files
// outside that prefix are stale (a crash between a chain compaction's
// new full checkpoint and the delta removal, or a torn delta write) and
// are swept on open.

// checkpointDeltaGlob matches a job's delta chain files.
const checkpointDeltaGlob = "checkpoint.d*.bin"

// deltaFileName is the chain file for 1-based sequence seq.
func deltaFileName(seq uint64) string {
	return fmt.Sprintf("checkpoint.d%04d.bin", seq)
}

// chain is a loaded, link-verified checkpoint chain.
type chain struct {
	// base is the verified full-checkpoint stream; step the final step
	// after applying deltas.
	base []byte
	step int
	// deltas holds the verified chain prefix in sequence order; stale
	// the delta file paths outside it.
	deltas [][]byte
	stale  []string
}

// readChain loads the job's full checkpoint and the longest valid
// delta prefix. On any base error the chain is unusable and every
// delta file is reported stale; a delta that fails verification or
// linkage truncates the chain there and marks the rest stale.
func (s *Store) readChain(id string) (chain, error) {
	dir := s.jobDir(id)
	paths, _ := s.fs.Glob(filepath.Join(dir, checkpointDeltaGlob))
	// Sort by parsed sequence number, not lexically, so chains are not
	// bounded by the zero-padding width.
	seqs := make(map[string]uint64, len(paths))
	for _, p := range paths {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "checkpoint.d%d.bin", &seq); err == nil {
			seqs[p] = seq
		}
	}
	sort.Slice(paths, func(i, j int) bool { return seqs[paths[i]] < seqs[paths[j]] })

	c := chain{}
	base, err := s.fs.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		c.stale = paths
		return c, fmt.Errorf("store: %w", err)
	}
	info, err := lb.VerifyCheckpointBytes(base)
	if err != nil {
		c.stale = paths
		return c, fmt.Errorf("store: checkpoint for %s: %w", id, err)
	}
	c.base = base
	c.step = info.Step
	prevCRC, err := lb.CheckpointCRC(base)
	if err != nil {
		c.stale = paths
		return c, fmt.Errorf("store: checkpoint for %s: %w", id, err)
	}
	for i, p := range paths {
		seq, ok := seqs[p]
		bad := !ok || seq != uint64(len(c.deltas)+1)
		var data []byte
		var di lb.DeltaInfo
		if !bad {
			if data, err = s.fs.ReadFile(p); err != nil {
				bad = true
			} else if di, err = lb.VerifyDeltaCheckpointBytes(data); err != nil {
				bad = true
			} else if di.Seq != seq || di.PrevCRC != prevCRC ||
				di.Info.Sites != info.Sites || di.Info.Q != info.Q || di.Info.Iolets != info.Iolets ||
				di.Info.Step <= c.step {
				bad = true
			}
		}
		if bad {
			c.stale = append(c.stale, paths[i:]...)
			break
		}
		c.deltas = append(c.deltas, data)
		c.step = di.Info.Step
		prevCRC = di.CRC
	}
	return c, nil
}

// reconstruct decodes the base and applies the chain's deltas,
// returning the final state.
func (c chain) reconstruct(id string) (*lb.CheckpointState, error) {
	st, err := lb.DecodeCheckpointBytes(c.base)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint for %s: %w", id, err)
	}
	for _, data := range c.deltas {
		d, err := lb.DecodeDeltaBytes(data)
		if err != nil {
			return nil, fmt.Errorf("store: checkpoint delta for %s: %w", id, err)
		}
		if err := st.ApplyDelta(d); err != nil {
			return nil, fmt.Errorf("store: checkpoint delta for %s: %w", id, err)
		}
	}
	return st, nil
}

// PutCheckpointDelta atomically writes chain member seq — with no
// fsync at all (syncNone). A power loss can keep the delta, tear it,
// or forget it entirely, and every outcome is sound: the chain
// truncates at the first record that fails CRC, sequence or linkage
// checks, and resume falls back to the previous verified point —
// never a wrong one. The base full checkpoint keeps its data fsync
// because *it* has no older fallback. Skipping the flush is what
// makes deltas cheap: checkpoint fsyncs otherwise convoy with the
// journal's fsyncs on the filesystem log.
func (s *Store) PutCheckpointDelta(id string, seq uint64, data []byte) error {
	err := s.atomicWrite(s.jobDir(id), deltaFileName(seq), data, syncNone)
	if err != nil {
		s.sweepTemps(id)
	}
	return err
}

// DropCheckpointDeltas removes every chain member — the second half of
// chain compaction, once a new full checkpoint has landed. The caller
// may crash between the two halves: leftover deltas then fail linkage
// against the new full checkpoint (different CRC, stale steps) and the
// open-time sweep collects them. Frozen stores no-op.
func (s *Store) DropCheckpointDeltas(id string) error {
	if s.isFrozen() {
		return nil
	}
	paths, err := s.fs.Glob(filepath.Join(s.jobDir(id), checkpointDeltaGlob))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range paths {
		if err := s.fs.Remove(p); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// VerifyCheckpoint fully verifies the job's checkpoint chain — base
// CRC, every delta's CRC, sequence, linkage, and step monotonicity —
// and returns the step a resume would start from. Boot recovery uses
// this instead of loading the whole state just to learn the step.
func (s *Store) VerifyCheckpoint(id string) (int, error) {
	c, err := s.readChain(id)
	if err != nil {
		return 0, err
	}
	return c.step, nil
}

// sweepChains removes stale delta files (chain members past a
// corruption or gap, or orphans a crashed compaction left behind) from
// every job directory. Boot-time counterpart of sweepTemps.
func (s *Store) sweepChains() {
	for _, id := range s.Jobs() {
		c, _ := s.readChain(id)
		for _, p := range c.stale {
			if err := s.fs.Remove(p); err == nil {
				s.log.Warn("swept stale checkpoint delta", "path", p)
			}
		}
	}
}

// encodeChain re-encodes a reconstructed chain as one full checkpoint
// stream for callers that want bytes.
func (c chain) encode(id string) ([]byte, error) {
	st, err := c.reconstruct(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := st.EncodeTo(&buf); err != nil {
		return nil, fmt.Errorf("store: checkpoint for %s: %w", id, err)
	}
	return buf.Bytes(), nil
}
