// Package store is the durability layer under the job manager: one
// write-ahead journal holding every job's accepted spec and latest
// lifecycle record, and a per-job directory holding only the job's
// most recent solver checkpoint, written so that a daemon killed at any
// instant restarts with nothing lost but the steps since the last
// checkpoint.
//
// Layout under the root ("data dir"):
//
//	journal.wal                      spec + lifecycle records, one CRC-trailed line each (journal.go)
//	jobs/<id>/checkpoint.bin         latest lb checkpoint (docs/CHECKPOINT_FORMAT.md)
//	jobs/<id>/checkpoint.dNNNN.bin   delta records chained onto it (chain.go)
//
// Checkpoints go to a temp file in the same directory and are atomically
// renamed over the target — a crash leaves either the old file or the
// new one, never a torn mix — and every load is CRC-verified through the
// lb format's own trailer.
package store

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/lb"
	"repro/internal/obs"
)

const checkpointFile = "checkpoint.bin"

// JobRecord is the persisted lifecycle state of one job — everything
// the manager needs to rebuild its bookkeeping after a restart, apart
// from the spec (journaled beside it) and the solver state (the
// checkpoint).
type JobRecord struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Step is the last solver step known at the time of the write;
	// the checkpoint, not this, decides where a resume starts.
	Step int `json:"step,omitempty"`
	// Restarts counts how many times the job has been re-queued after
	// a daemon restart interrupted it.
	Restarts   int       `json:"restarts,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
	// Tenant is the admission-control account the job is charged to, so
	// a restart keeps quota accounting honest.
	Tenant string `json:"tenant,omitempty"`
	// Paused records that the job was paused by steering when this
	// state was written; recovery resumes such a job *as paused* rather
	// than silently letting it run.
	Paused bool `json:"paused,omitempty"`
	// Steer carries steering state that must survive a restart (the
	// checkpoint holds solver state; this holds operator intent).
	Steer *SteerRecord `json:"steer,omitempty"`
}

// SteerRecord is the persisted slice of steering state: the set-iolet
// overrides issued since submit. It is written alongside lifecycle
// transitions so a recovered job re-applies the operator's boundary
// tweaks.
type SteerRecord struct {
	Iolets []IoletOver `json:"iolets,omitempty"`
}

// IoletOver is one persisted set-iolet command (latest density wins
// per iolet index).
type IoletOver struct {
	Iolet   int     `json:"iolet"`
	Density float64 `json:"density"`
}

// Store persists job specs, lifecycle records and checkpoints under
// one root directory. Methods are safe for concurrent use; writes to
// different jobs never contend beyond a short mutex hold.
type Store struct {
	root string
	// fs is the filesystem seam every operation routes through: the os
	// package in production, a crash-modeling fault injector in the
	// chaos suite (see internal/faultfs).
	fs faultfs.FS
	// log receives write-failure warnings (callers also get the error;
	// the log entry survives paths that swallow it). Never nil.
	log *slog.Logger

	mu     sync.Mutex
	frozen bool
	// index is the fold of the journal: every live job's spec and
	// latest record (journal.go).
	index index

	// jn is the journal's writer state, open from OpenFS on.
	jn *journal
	// tailAt and tailLen locate the corrupt journal suffix OpenFS
	// discarded; the first SetLogger reports it (the store is opened
	// before it is handed a logger).
	tailAt, tailLen int
	// groupObs, when set, observes how many records each journal fsync
	// made durable.
	groupObs func(records int)
}

// Open creates (if needed) and returns a store rooted at dir on the
// real filesystem.
func Open(dir string) (*Store, error) {
	return OpenFS(faultfs.OS{}, dir)
}

// OpenFS creates (if needed) and returns a store rooted at dir on fsys
// — the injection point the fault-injection harness uses; production
// callers use Open. It sweeps the temp files a crash left mid-write
// (the one kind of remnant atomic renames cannot clean up by
// construction), brings the journal up (openJournal) and sweeps stale
// checkpoint deltas. A journal that cannot be read, compacted or opened
// fails the open.
func OpenFS(fsys faultfs.FS, dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: dir, fs: fsys, log: obs.NopLogger()}
	s.sweepTemps("*")
	if err := s.openJournal(); err != nil {
		return nil, err
	}
	s.sweepChains()
	return s, nil
}

// sweepTemps removes orphaned temp files under jobs/<id> ("*" sweeps
// every job, plus the disk probes directly under jobs/ and the journal
// compaction's temp in the root). Boot-time recovery calls it for crash
// leftovers; failed checkpoint writes call it too, so a rename that
// failed mid-flight (and whose cleanup also failed) cannot strand a
// .tmp until the next restart.
func (s *Store) sweepTemps(id string) {
	patterns := []string{filepath.Join(s.jobDir(id), "*.tmp-*")}
	if id == "*" {
		patterns = append(patterns, filepath.Join(s.root, "jobs", "*.tmp-*"), filepath.Join(s.root, journalFile+".tmp-*"))
	}
	for _, pattern := range patterns {
		stale, _ := s.fs.Glob(pattern)
		for _, path := range stale {
			if err := s.fs.Remove(path); err == nil {
				s.log.Warn("swept orphan temp file", "path", path)
			}
		}
	}
}

// SetLogger routes the store's warnings to log (nil restores the
// discard default) and reports, once, the corrupt journal tail OpenFS
// discarded. Call before the store is shared across goroutines.
func (s *Store) SetLogger(log *slog.Logger) {
	if log == nil {
		log = obs.NopLogger()
	}
	s.log = log
	if s.tailLen > 0 {
		log.Warn("journal replay discarded a corrupt tail",
			"path", filepath.Join(s.root, journalFile), "offset", s.tailAt, "bytes", s.tailLen)
		s.tailLen = 0
	}
}

// Root returns the data directory the store was opened on.
func (s *Store) Root() string { return s.root }

// Freeze makes every subsequent write a silent no-op, simulating the
// process dying at this instant (SIGKILL leaves the files exactly as
// the last completed write did). Crash-injection hook for durability
// tests; reads keep working.
func (s *Store) Freeze() {
	s.mu.Lock()
	s.frozen = true
	s.mu.Unlock()
}

func (s *Store) isFrozen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frozen
}

func (s *Store) jobDir(id string) string {
	return filepath.Join(s.root, "jobs", id)
}

// ProbeWrite checks whether the store's filesystem currently accepts
// writes: it creates a tiny temp file under the jobs directory, writes
// and syncs it, and removes it again. The disk-pressure degrader uses
// this to decide when durability can be re-enabled after an ENOSPC
// episode. The temp name matches the sweepTemps pattern, so a probe
// interrupted by a crash is cleaned up at the next boot like any other
// orphan.
func (s *Store) ProbeWrite() error {
	dir := filepath.Join(s.root, "jobs")
	f, err := s.fs.CreateTemp(dir, "probe.tmp-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if _, err := f.Write([]byte("probe\n")); err != nil {
		f.Close()
		s.fs.Remove(name)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(name)
		return err
	}
	return s.fs.Remove(name)
}

// Jobs lists the IDs of every job the journal holds, sorted.
func (s *Store) Jobs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.ids()
}

// Spec returns the raw spec JSON a job was submitted with.
func (s *Store) Spec(id string) (json.RawMessage, error) {
	e, err := s.lookup(id)
	return e.spec, err
}

// State returns a job's latest lifecycle record.
func (s *Store) State(id string) (JobRecord, error) {
	e, err := s.lookup(id)
	return e.state, err
}

func (s *Store) lookup(id string) (entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		return entry{}, fmt.Errorf("store: job %s: %w", id, fs.ErrNotExist)
	}
	return e, nil
}

// PutCheckpoint atomically replaces the job's checkpoint with data (a
// serialized lb checkpoint stream, which carries its own CRC). The
// sync mode depends on what a torn write would cost:
//
//   - A job's *first* checkpoint is written with no fsync (syncNone).
//     If a crash tears or forgets it, verification fails and resume
//     falls back to a fresh start from step 0 — exactly the state the
//     write was improving on. Nothing is lost that durably existed.
//   - An *overwrite* of an existing checkpoint fsyncs the data
//     (syncData): a rename without a data flush could replace a good
//     checkpoint with a torn one, destroying the fallback. The
//     rename's directory entry is still not fsynced — if the crash
//     forgets the rename the previous checkpoint remains, and resume
//     correctness never depends on having the *newest* checkpoint,
//     only *a* verified one.
//
// A failed write sweeps the job's temp files before returning: when
// the failure struck between creating the temp and renaming it (and
// the in-line cleanup failed too), the orphan must not linger until
// the next boot-time sweep.
func (s *Store) PutCheckpoint(id string, data []byte) error {
	mode := syncData
	if prior, gerr := s.fs.Glob(filepath.Join(s.jobDir(id), checkpointFile)); gerr == nil && len(prior) == 0 {
		mode = syncNone
	}
	err := s.atomicWrite(s.jobDir(id), checkpointFile, data, mode)
	if err != nil {
		s.sweepTemps(id)
	}
	return err
}

// Checkpoint loads and fully verifies the job's latest checkpoint,
// returning a full-format stream and the solver step it captures. A
// chain (full + deltas) is reconstructed and re-encoded; with no valid
// deltas the raw full-checkpoint file is returned unchanged. A missing,
// truncated or corrupt base is an error — the caller falls back to a
// fresh start from step 0.
func (s *Store) Checkpoint(id string) ([]byte, int, error) {
	c, err := s.readChain(id)
	if err != nil {
		return nil, 0, err
	}
	if len(c.deltas) == 0 {
		return c.base, c.step, nil
	}
	data, err := c.encode(id)
	if err != nil {
		return nil, 0, err
	}
	return data, c.step, nil
}

// CheckpointState loads and decodes the job's latest checkpoint chain
// in a single pass (shape-vs-length fail-fast, CRC inside the decode,
// deltas link-verified and applied in order). The dispatch-time form of
// Checkpoint — the caller wants the installed state, not the bytes.
func (s *Store) CheckpointState(id string) (*lb.CheckpointState, error) {
	c, err := s.readChain(id)
	if err != nil {
		return nil, err
	}
	return c.reconstruct(id)
}

// Remove forgets a job: it journals a durable tombstone, then deletes
// the job's directory — the undo for a submission that was journaled
// but ultimately not accepted, and the retention GC's delete. The
// tombstone goes first: a crash between the two leaves a directory no
// live record claims, which the next OpenFS deletes. Frozen stores
// no-op.
func (s *Store) Remove(id string) error {
	if s.isFrozen() {
		return nil
	}
	if err := s.appendRecord(journalRec{Op: "remove", ID: id}, true); err != nil {
		return err
	}
	if err := s.fs.RemoveAll(s.jobDir(id)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Durability modes for atomicWrite. Both are atomic against concurrent
// readers (temp file + rename); they differ only in what survives a
// power loss.
const (
	// syncData fsyncs the data but not the rename: a power loss may
	// keep the previous file. Only acceptable when the previous file
	// is an equally valid answer (checkpoint replaces), or when the
	// caller syncs the directory itself (journal compaction).
	syncData = iota
	// syncNone fsyncs nothing: a power loss may keep the previous
	// file, a torn tail, or nothing. Only acceptable when the reader
	// CRC-verifies and has a sound fallback for every one of those
	// outcomes (delta chain members — a bad tail truncates the chain
	// to the previous verified point). What it buys: no disk flush at
	// all on the write path, which matters because concurrent fsyncs
	// convoy on the filesystem journal.
	syncNone
)

// atomicWrite writes data to dir/name via temp file + rename, creating
// dir on first use, with the durability the mode asks for. Frozen
// stores no-op.
func (s *Store) atomicWrite(dir, name string, data []byte, mode int) error {
	if s.isFrozen() {
		return nil
	}
	err := s.atomicWriteFile(dir, name, data, mode)
	if err != nil {
		s.log.Warn("store write failed", "path", filepath.Join(dir, name), "err", err)
	}
	return err
}

func (s *Store) atomicWriteFile(dir, name string, data []byte, mode int) error {
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := s.fs.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if mode == syncData {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
