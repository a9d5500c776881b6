package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// The journal is the store's one home for a job's spec and lifecycle
// state: a write-ahead log of records, folded into an in-memory index
// (the latest record per id wins; a tombstone removes the id) that
// Jobs, Spec and State read.
//
// Format: one record per line, `<compact JSON> #crc64:<16 hex>\n`. The
// CRC is per line, so a torn tail (power cut mid-append) invalidates
// only the last line; replay stops at the first bad line and everything
// before it is intact — exactly the prefix the fsync contract promised.
//
// Lifecycle: OpenFS folds the log into the index, rewrites it as one
// submit line per live job (compaction), and opens it for append. At
// runtime each append writes its line on the caller's goroutine; a
// caller that waits then fsyncs, and waiters queued behind an fsync in
// flight share the next one ("group commit" without a committer). A
// failed write or fsync marks the log broken, and the next append
// rewrites it from the index first, so a torn line never sits under a
// later record. Remove appends a durable tombstone *before* deleting
// the directory, so a crash cannot bring a removed job back.

// journalFile is the write-ahead log, in the store root next to jobs/.
const journalFile = "journal.wal"

// journalCRCSep introduces the per-line integrity trailer.
const journalCRCSep = " #crc64:"

var crcTable = crc64.MakeTable(crc64.ECMA)

// journalRec is one journal line. Submit carries spec and state
// together, so a job is never recorded with one and not the other.
type journalRec struct {
	Op    string          `json:"op"` // "submit", "state", "remove"
	ID    string          `json:"id"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	State *JobRecord      `json:"state,omitempty"`
}

// entry is one live job in the index.
type entry struct {
	spec  json.RawMessage
	state JobRecord
}

// index maps every live job to its spec and latest lifecycle record.
type index map[string]entry

// apply folds one record into the index — the one fold boot replay and
// runtime appends share. A submit (re)defines the job, a state record
// replaces the lifecycle record of a job the index holds, a tombstone
// removes the job. A state record for an id the index does not hold
// belongs to a submit that never became durable, or to a removed job,
// and changes nothing.
func (ix index) apply(rec journalRec) {
	switch rec.Op {
	case "submit":
		if rec.Spec != nil && rec.State != nil {
			ix[rec.ID] = entry{spec: rec.Spec, state: *rec.State}
		}
	case "state":
		if e, ok := ix[rec.ID]; ok && rec.State != nil {
			e.state = *rec.State
			ix[rec.ID] = e
		}
	case "remove":
		delete(ix, rec.ID)
	}
}

// ids returns the index's job IDs, sorted.
func (ix index) ids() []string {
	ids := make([]string, 0, len(ix))
	for id := range ix {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// encode renders the index as a compacted journal: one submit line per
// live job, in id order.
func (ix index) encode() ([]byte, error) {
	var buf bytes.Buffer
	for _, id := range ix.ids() {
		e := ix[id]
		line, err := encodeJournalLine(journalRec{Op: "submit", ID: id, Spec: e.spec, State: &e.state})
		if err != nil {
			return nil, err
		}
		buf.Write(line)
	}
	return buf.Bytes(), nil
}

// journal is the log's writer state. An append writes its line on the
// caller's goroutine under Store.mu; a caller that waits then fsyncs
// outside that lock (sync). Lock order: Store.mu, then syncMu.
type journal struct {
	file    faultfs.File // swapped only by rewriteJournal
	written atomic.Int64 // records written; grows under Store.mu
	// broken marks a log that a failed write or fsync may have left
	// torn: the next append rewrites it from the index first.
	broken atomic.Bool
	closed bool // under Store.mu

	// Under syncMu: syncing marks an fsync in flight (syncDone broadcasts
	// its end); synced counts the records an fsync or rewrite made durable.
	syncMu   sync.Mutex
	syncing  bool
	synced   int64
	syncDone sync.Cond
}

// openJournal brings the journal up, in this order: fold the previous
// run's log (over the sidecars of a pre-journal data dir, legacy.go)
// into the index; delete job directories no live record claims — a
// submit that never got its 201, or a Remove cut off after its
// tombstone; write the index as a fresh journal and open it for append
// (rewriteJournal); delete the imported sidecars. Any failure fails the
// open: a store never runs on a journal it could not bring up.
func (s *Store) openJournal() error {
	path := filepath.Join(s.root, journalFile)
	data, err := s.fs.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: read journal: %w", err)
	}
	ix, sidecars, err := s.importSidecars()
	if err != nil {
		return err
	}
	recs, intact := parseJournal(data)
	if intact < len(data) {
		s.tailAt, s.tailLen = intact, len(data)-intact
	}
	for _, rec := range recs {
		ix.apply(rec)
	}
	jobs := filepath.Join(s.root, "jobs")
	dirs, err := s.fs.ReadDir(jobs)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	removed := false
	for _, d := range dirs {
		if _, live := ix[d.Name()]; d.IsDir() && !live {
			if err := s.fs.RemoveAll(s.jobDir(d.Name())); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			removed = true
		}
	}
	// The deletions must be durable before compaction drops the
	// tombstones that justify them: a removed job's sidecars coming back
	// after a power cut would otherwise bring the job back.
	if removed {
		if err := s.fs.SyncDir(jobs); err != nil {
			return fmt.Errorf("store: sync %s: %w", jobs, err)
		}
	}
	s.index, s.jn = ix, &journal{}
	s.jn.syncDone.L = &s.jn.syncMu
	if err := s.rewriteJournal(); err != nil {
		return err
	}
	for _, p := range sidecars {
		if err := s.fs.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.jn.file.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// rewriteJournal writes the index as a fresh journal — temp file,
// fsync, rename, root directory sync — and opens it for append: the
// boot's compaction, and the repair of a log a failed append may have
// torn, so no torn line sits under a later record. The caller holds
// Store.mu (or owns the store, at boot), so it skips atomicWrite's
// frozen check, which takes Store.mu. An fsync in flight ends first.
func (s *Store) rewriteJournal() error {
	j := s.jn
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	for j.syncing {
		j.syncDone.Wait()
	}
	data, err := s.index.encode()
	if err != nil {
		return err
	}
	if err := s.atomicWriteFile(s.root, journalFile, data, syncData); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.root); err != nil {
		return fmt.Errorf("store: sync %s: %w", s.root, err)
	}
	f, err := s.fs.OpenAppend(filepath.Join(s.root, journalFile))
	if err != nil {
		return fmt.Errorf("store: open journal: %w", err)
	}
	if j.file != nil {
		j.file.Close()
	}
	j.file, j.synced = f, j.written.Load()
	j.broken.Store(false)
	return nil
}

// EnableJournal accepts only a zero delay: the journal is open from
// OpenFS on and has no commit window.
func (s *Store) EnableJournal(delay time.Duration) error {
	if delay != 0 {
		return fmt.Errorf("store: journal delay %v: only 0 is supported", delay)
	}
	return nil
}

// CloseJournal flushes the records no fsync has covered yet (no-wait
// ones) and closes the log; later appends fail. The journal stays on
// disk for the next OpenFS to compact. Idempotent.
func (s *Store) CloseJournal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn.closed {
		return
	}
	s.jn.closed = true
	if err := s.jn.sync(s.jn.written.Load(), s.groupObs); err != nil {
		s.log.Warn("journal close-time flush failed", "err", err)
	}
	s.jn.file.Close()
}

// SetGroupCommitObserver registers a callback invoked after every
// journal fsync with the number of records it made durable. Call
// before the store is shared.
func (s *Store) SetGroupCommitObserver(fn func(records int)) {
	s.groupObs = fn
}

// sync makes the log durable through record seq. A caller whose record
// was written while another caller's fsync was in flight waits for it
// to end; then either an fsync that started after its write already
// covered it, or it runs the next fsync for every record written so
// far — so concurrent waiters share fsyncs. obs, when set, gets the
// records each fsync made durable. A broken log is not fsynced: the
// rewrite at the next append makes its records durable.
func (j *journal) sync(seq int64, obs func(records int)) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	for j.syncing && j.synced < seq {
		j.syncDone.Wait()
	}
	if j.synced >= seq {
		return nil
	}
	if j.broken.Load() {
		return fmt.Errorf("store: journal awaits a rewrite after a failed append")
	}
	j.syncing = true
	from, upto := j.synced, j.written.Load()
	j.syncMu.Unlock()
	err := j.file.Sync()
	if err == nil && obs != nil {
		obs(int(upto - from))
	}
	j.syncMu.Lock()
	j.syncing = false
	j.syncDone.Broadcast()
	if err != nil {
		j.broken.Store(true)
		return fmt.Errorf("store: sync journal: %w", err)
	}
	j.synced = upto
	return nil
}

// encodeJournalLine renders rec as one CRC-trailed line.
func encodeJournalLine(rec journalRec) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: marshal journal record: %w", err)
	}
	return []byte(fmt.Sprintf("%s%s%016x\n", payload, journalCRCSep, crc64.Checksum(payload, crcTable))), nil
}

// parseJournal returns the records of every intact line, stopping at
// the first torn or corrupt one (the legal crash outcome: a durable
// prefix), and the length of that intact prefix in bytes. A line whose
// id is not one plain path element is corrupt too: the writer never
// produces one, and the store must never address a path outside jobs/.
func parseJournal(data []byte) ([]journalRec, int) {
	var recs []journalRec
	intact := 0
	for {
		nl := bytes.IndexByte(data[intact:], '\n')
		if nl < 0 {
			return recs, intact // torn tail, no terminator
		}
		payload, ok := splitCRC(data[intact:intact+nl], journalCRCSep)
		var rec journalRec
		if !ok || json.Unmarshal(payload, &rec) != nil ||
			rec.ID == "" || rec.ID == "." || rec.ID == ".." || strings.ContainsAny(rec.ID, `/\`) {
			return recs, intact
		}
		recs = append(recs, rec)
		intact += nl + 1
	}
}

// splitCRC splits data at the last sep and returns the payload before
// it, with ok reporting whether the 16-hex-digit CRC64 after sep
// matches that payload.
func splitCRC(data []byte, sep string) (payload []byte, ok bool) {
	at := bytes.LastIndex(data, []byte(sep))
	if at < 0 {
		return nil, false
	}
	var want uint64
	if _, err := fmt.Sscanf(string(data[at+len(sep):]), "%016x", &want); err != nil {
		return nil, false
	}
	return data[:at], crc64.Checksum(data[:at], crcTable) == want
}

// appendRecord writes rec to the log and folds it into the index, both
// under the store lock, so the index changes in exactly the order the
// log records and never holds a record whose write failed. wait=true
// then waits for an fsync covering it. Frozen stores no-op.
func (s *Store) appendRecord(rec journalRec, wait bool) error {
	line, err := encodeJournalLine(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.frozen {
		s.mu.Unlock()
		return nil
	}
	seq, err := s.writeRecord(line)
	if err == nil {
		s.index.apply(rec)
	}
	s.mu.Unlock()
	if err == nil && wait {
		err = s.jn.sync(seq, s.groupObs)
	}
	if err != nil {
		s.log.Warn("journal append failed", "job", rec.ID, "op", rec.Op, "err", err)
	}
	return err
}

// writeRecord appends line to the log, rewriting a broken log first,
// and returns the line's record count. The caller holds Store.mu.
func (s *Store) writeRecord(line []byte) (int64, error) {
	j := s.jn
	if j.closed {
		return 0, fmt.Errorf("store: journal closed")
	}
	if j.broken.Load() {
		if err := s.rewriteJournal(); err != nil {
			return 0, err
		}
	}
	if _, err := j.file.Write(line); err != nil {
		// Part of the line may have reached the file.
		j.broken.Store(true)
		return 0, fmt.Errorf("store: append journal: %w", err)
	}
	return j.written.Add(1), nil
}

// AppendSubmit journals an accepted submission — spec and initial
// lifecycle record as one atomic line — and waits until it is durable.
func (s *Store) AppendSubmit(id string, spec any, rec JobRecord) error {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("store: marshal spec: %w", err)
	}
	return s.appendRecord(journalRec{Op: "submit", ID: id, Spec: specJSON, State: &rec}, true)
}

// AppendState journals a lifecycle update and waits until it is
// durable.
func (s *Store) AppendState(id string, rec JobRecord) error {
	return s.appendRecord(journalRec{Op: "state", ID: id, State: &rec}, true)
}

// AppendStateNoWait journals a lifecycle update without waiting for an
// fsync: the record is written in order with every other append and
// becomes durable at the next waited append or CloseJournal — losing it
// equals a crash a moment earlier. A failed write still returns its
// error.
func (s *Store) AppendStateNoWait(id string, rec JobRecord) error {
	return s.appendRecord(journalRec{Op: "state", ID: id, State: &rec}, false)
}

// JournalSnapshot folds the write-ahead log under root on fsys without
// opening a store, returning the newest lifecycle record of every job
// the journal holds. Crash-harness introspection: "is this job durably
// recorded" means exactly "is it in the intact journal prefix".
func JournalSnapshot(fsys faultfs.FS, root string) map[string]JobRecord {
	data, err := fsys.ReadFile(filepath.Join(root, journalFile))
	if err != nil {
		return nil
	}
	recs, _ := parseJournal(data)
	ix := index{}
	for _, rec := range recs {
		ix.apply(rec)
	}
	out := make(map[string]JobRecord, len(ix))
	for id, e := range ix {
		out[id] = e.state
	}
	return out
}
