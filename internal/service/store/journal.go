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
// runtime one commit goroutine owns the file and batches every record
// that arrived while the previous fsync was in flight into the next one
// — under concurrent submits the flush cost amortizes across the batch
// ("group commit"), while each waiting caller still blocks until its
// record is durable. Remove appends a durable tombstone *before*
// deleting the directory, so a crash cannot bring a removed job back.

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

// journalReq is one record queued for the next group commit; done is
// nil for a record nobody waits on.
type journalReq struct {
	line []byte
	done chan error
}

// journal is the group-commit writer. One goroutine owns the file;
// callers enqueue and (optionally) wait.
type journal struct {
	file faultfs.File
	// delay is the group-commit window in nanoseconds (EnableJournal).
	delay atomic.Int64

	// dirty marks appended-but-not-fsynced bytes (commit goroutine
	// only): a batch of exclusively no-wait records is written without
	// its own fsync — its contract is already "durable no later than
	// the next waited commit", so it rides the next batch that has a
	// caller blocked on it (or the close-time flush) instead of paying
	// a dedicated disk flush.
	dirty bool

	mu     sync.Mutex
	queue  []journalReq
	closed bool
	kick   chan struct{}
	dead   chan struct{}
}

// openJournal brings the journal up, in this order: fold the previous
// run's log (over the sidecars of a pre-journal data dir, legacy.go)
// into the index; delete job directories no live record claims — a
// submit that never got its 201, or a Remove cut off after its
// tombstone; write the index as a fresh journal (temp file, fsync,
// rename, root directory sync); delete the imported sidecars; open the
// log for append and start the commit goroutine. Any failure fails the
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
	compacted, err := ix.encode()
	if err != nil {
		return err
	}
	if err := s.atomicWrite(s.root, journalFile, compacted, syncData); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.root); err != nil {
		return fmt.Errorf("store: sync %s: %w", s.root, err)
	}
	for _, p := range sidecars {
		if err := s.fs.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: %w", err)
		}
	}
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: open journal: %w", err)
	}
	s.index = ix
	s.jn = &journal{file: f, kick: make(chan struct{}, 1), dead: make(chan struct{})}
	go s.jn.run(s)
	return nil
}

// EnableJournal sets the group-commit window: how long a commit waits
// after the first record arrives to let more join the batch (0, the
// default, commits as soon as the writer is free, which already batches
// under concurrency). The journal itself is open from OpenFS on.
func (s *Store) EnableJournal(delay time.Duration) error {
	s.jn.delay.Store(int64(delay))
	return nil
}

// CloseJournal stops the commit goroutine and closes the log. Records
// already acknowledged are durable; the journal stays on disk for the
// next OpenFS to compact. Idempotent.
func (s *Store) CloseJournal() {
	j := s.jn
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.kick)
	}
	j.mu.Unlock()
	<-j.dead
}

// SetGroupCommitObserver registers a callback invoked after every group
// commit with the number of records in the batch. Call before the store
// is shared.
func (s *Store) SetGroupCommitObserver(fn func(records int)) {
	s.groupObs = fn
}

// SetWriteFailureObserver registers a callback invoked with write
// errors nobody else will see — a group commit whose batch held only
// no-wait records has no caller to return the error to. Call before
// the store is shared.
func (s *Store) SetWriteFailureObserver(fn func(err error)) {
	s.writeErr = fn
}

// run is the commit goroutine: drain everything queued, write it as one
// append, fsync once, wake every waiter.
func (j *journal) run(s *Store) {
	defer close(j.dead)
	for range j.kick {
		if d := time.Duration(j.delay.Load()); d > 0 {
			time.Sleep(d)
		}
		j.commit(s)
	}
	// Closed: fail anything that raced in after the final commit.
	j.commit(s)
	j.mu.Lock()
	left := j.queue
	j.queue = nil
	j.mu.Unlock()
	for _, r := range left {
		if r.done != nil {
			r.done <- fmt.Errorf("store: journal closed")
		}
	}
	if j.dirty {
		// Deferred no-wait records flush before the log closes, so a
		// graceful shutdown loses nothing.
		if err := j.file.Sync(); err != nil {
			s.log.Warn("journal close-time flush failed", "err", err)
		}
	}
	j.file.Close()
}

func (j *journal) commit(s *Store) {
	j.mu.Lock()
	batch := j.queue
	j.queue = nil
	j.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	var buf bytes.Buffer
	hasWaiter := false
	for _, r := range batch {
		buf.Write(r.line)
		if r.done != nil {
			hasWaiter = true
		}
	}
	var err error
	if _, werr := j.file.Write(buf.Bytes()); werr != nil {
		err = werr
	} else if !hasWaiter {
		// All-no-wait batch: skip the fsync; the records are ordered in
		// the file and flush with the next waited commit or at close.
		j.dirty = true
	} else if serr := j.file.Sync(); serr != nil {
		err = serr
	} else {
		j.dirty = false
	}
	if err != nil && !hasWaiter && s.writeErr != nil {
		// All-no-wait batch: no caller will ever see this error, so the
		// observer (disk-pressure degrader) is the only escalation path.
		s.writeErr(err)
	}
	for _, r := range batch {
		if r.done == nil {
			// No-wait record: nobody is listening, so a failure is
			// reported here or nowhere.
			if err != nil {
				s.log.Warn("journal group commit failed for no-wait record", "err", err)
			}
			continue
		}
		r.done <- err
	}
	if s.groupObs != nil {
		s.groupObs(len(batch))
	}
}

// enqueue adds line to the next group commit and returns the channel
// its outcome arrives on — nil when wait is false: the record keeps its
// place in the queue (so ordering against later appends is preserved)
// and lands in the very next group commit, but its caller does not pay
// the fsync latency, and a commit failure is logged by the commit
// goroutine instead of returned.
func (j *journal) enqueue(line []byte, wait bool) (chan error, error) {
	req := journalReq{line: line}
	if wait {
		req.done = make(chan error, 1)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, fmt.Errorf("store: journal closed")
	}
	j.queue = append(j.queue, req)
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return req.done, nil
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

// appendRecord folds rec into the index and queues it for the next
// group commit, both under the store lock, so the index changes in
// exactly the order the journal records. wait=false does not wait for
// the commit's fsync. Frozen stores no-op.
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
	done, err := s.jn.enqueue(line, wait)
	if err == nil {
		s.index.apply(rec)
	}
	s.mu.Unlock()
	if err == nil && done != nil {
		err = <-done
	}
	if err != nil {
		s.log.Warn("journal append failed", "job", rec.ID, "op", rec.Op, "err", err)
	}
	return err
}

// AppendSubmit journals an accepted submission — spec and initial
// lifecycle record as one atomic, group-committed line.
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

// AppendStateNoWait journals a lifecycle update without waiting for
// the group commit: the record is ordered against every later append
// and lands in the next shared fsync, but the caller returns
// immediately — durability semantics equal a crash a moment earlier.
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
