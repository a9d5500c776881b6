package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Errors injected faults surface. Store code treats them like any
// other disk error; tests match them to tell an injected failure from
// a logic bug.
var (
	// ErrInjected is returned by an operation a Fault failed.
	ErrInjected = errors.New("faultfs: injected fault")
	// ErrCrashed is returned by every operation after a crash fault
	// fired (or CrashNow was called) until PowerCycle — the process-side
	// view of the machine losing power.
	ErrCrashed = errors.New("faultfs: filesystem crashed")
	// ErrNoSpace is returned by space-allocating operations while the
	// filesystem is full (FaultENOSPC fired, or SetFull). It wraps
	// syscall.ENOSPC so errors.Is(err, syscall.ENOSPC) treats injected
	// and real disk-full failures identically — which is exactly how
	// the service layer's degradation policy detects them.
	ErrNoSpace = fmt.Errorf("faultfs: disk full: %w", syscall.ENOSPC)
)

// FaultKind selects what happens at the faulted operation.
type FaultKind int

const (
	// FaultNone is the zero value: no fault.
	FaultNone FaultKind = iota
	// FaultErr fails the operation with ErrInjected, no side effects —
	// a transient I/O error.
	FaultErr
	// FaultShortWrite persists a seeded-length prefix of the written
	// bytes and returns ErrInjected — a write interrupted partway.
	// Non-write operations degrade to FaultErr.
	FaultShortWrite
	// FaultTornWrite persists the full write but silently flips one
	// seeded byte — corruption no error ever reported, only a CRC (or
	// checksum-verifying reader) can catch. Non-write operations
	// degrade to FaultErr.
	FaultTornWrite
	// FaultCrash cuts power at this operation: it fails with
	// ErrCrashed, every later operation fails the same way, and
	// PowerCycle then discards all un-fsynced data and directory
	// entries (un-synced file tails are torn at a seeded length).
	FaultCrash
	// FaultENOSPC fills the disk at this operation — and, unlike the
	// one-shot kinds, *stays* full: every subsequent space-allocating
	// operation (writes, file creation, appends, mkdir) fails with
	// ErrNoSpace, while deletes, renames, syncs and reads keep working
	// (freeing space must be possible, or no GC could ever recover the
	// disk). SetFull(false) clears it — the "operator freed space"
	// lever in tests.
	FaultENOSPC
)

// String names the kind for logs and reproduction lines.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultErr:
		return "err"
	case FaultShortWrite:
		return "short"
	case FaultTornWrite:
		return "torn"
	case FaultCrash:
		return "crash"
	case FaultENOSPC:
		return "enospc"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// ParseFaultKind inverts String (for CLI flags).
func ParseFaultKind(s string) (FaultKind, error) {
	for _, k := range []FaultKind{FaultNone, FaultErr, FaultShortWrite, FaultTornWrite, FaultCrash, FaultENOSPC} {
		if k.String() == s {
			return k, nil
		}
	}
	return FaultNone, fmt.Errorf("faultfs: unknown fault kind %q", s)
}

// Fault schedules one injected failure: when the Mem executes its
// Op'th counted operation (1-based; see Ops for what counts), Kind
// happens.
type Fault struct {
	Op   int64
	Kind FaultKind
}

// Mem is an in-memory FS with a disk-like durability model:
//
//   - file contents become durable only on File.Sync;
//   - file directory entries (creations, renames, removals) become
//     durable only on SyncDir of the containing directory;
//   - directory creation itself is immediately durable (a journaled
//     mkdir): the store's data-dir chain is established at boot,
//     out-of-band of the write paths under test;
//   - a crash (FaultCrash or CrashNow, then PowerCycle) rolls every
//     directory back to its last-synced entry set and every file back
//     to its last-synced contents — a file that was never synced keeps
//     only a seeded-random prefix of what was written (a torn page).
//
// Every mutating operation (MkdirAll, CreateTemp, OpenAppend, Write,
// Sync, Rename, Remove, RemoveAll, SyncDir) is counted; faults registered with
// Inject fire when the counter reaches their op index. All behaviour
// is deterministic for a fixed seed and operation order.
type Mem struct {
	mu   sync.Mutex
	root *memDir
	rng  *rand.Rand

	ops     int64
	faults  []Fault // sorted by Op, consumed as they fire
	crashed bool
	// full models a disk with no free space: space-allocating ops fail
	// with ErrNoSpace until SetFull(false). Set by FaultENOSPC firing
	// or SetFull(true); space-freeing ops (remove, rename) and reads
	// keep working.
	full   bool
	oplog  []string
	fired  []string // descriptions of faults that fired, for repro messages
	tmpSeq int
}

// NewMem returns an empty in-memory filesystem. All torn-write and
// crash tearing randomness derives from seed, so a failing fault
// schedule reproduces from (seed, op index) alone.
func NewMem(seed int64) *Mem {
	return &Mem{root: newMemDir(), rng: rand.New(rand.NewSource(seed))}
}

// Inject schedules faults (by counted-operation index). May be called
// any time; faults whose index already passed never fire.
func (m *Mem) Inject(faults ...Fault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults, faults...)
	sort.Slice(m.faults, func(i, j int) bool { return m.faults[i].Op < m.faults[j].Op })
}

// Ops returns how many counted (mutating) operations have executed.
func (m *Mem) Ops() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// OpLog returns a copy of the descriptions of every counted operation
// so far, 1-based: OpLog()[k-1] describes op k. The chaos driver uses
// it to pick interesting crash points and to label failures.
func (m *Mem) OpLog() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.oplog...)
}

// Fired returns a description of every fault that has fired.
func (m *Mem) Fired() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.fired...)
}

// SetFull sets or clears the disk-full state out of band: the test
// harness's "space freed" (or "disk filled") lever, equivalent to a
// FaultENOSPC firing except not tied to an op index.
func (m *Mem) SetFull(full bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.full = full
}

// Crashed reports whether the filesystem is dead (crash fault or
// CrashNow, no PowerCycle yet).
func (m *Mem) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// CrashNow cuts power immediately, independent of the op counter —
// the hook-driven form of FaultCrash (used by named crash points).
// Idempotent.
func (m *Mem) CrashNow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.crashed {
		m.crashed = true
		m.fired = append(m.fired, fmt.Sprintf("crash-now after op %d", m.ops))
	}
}

// PowerCycle brings a crashed filesystem back: un-fsynced directory
// entries and file contents are discarded (never-synced files keep a
// seeded-random torn prefix), and operations work again. Calling it on
// a live filesystem simulates pulling power right now.
func (m *Mem) PowerCycle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyCrashLocked(m.root)
	m.crashed = false
}

func (m *Mem) applyCrashLocked(d *memDir) {
	d.entries = make(map[string]memNode, len(d.durable))
	for name, n := range d.durable {
		d.entries[name] = n
	}
	for _, n := range d.entries {
		switch x := n.(type) {
		case *memDir:
			m.applyCrashLocked(x)
		case *memFile:
			if x.synced {
				x.data = append(x.data[:0:0], x.durable...)
			} else {
				// The entry survived (its directory was synced) but the
				// data never was: keep a torn prefix, the adversarial
				// but filesystem-legal outcome.
				x.data = x.data[:m.rng.Intn(len(x.data)+1)]
			}
		}
	}
}

// memNode is either *memDir or *memFile.
type memNode interface{ isMemNode() }

type memDir struct {
	entries map[string]memNode // current view
	durable map[string]memNode // view a crash rolls back to
}

func newMemDir() *memDir {
	return &memDir{entries: map[string]memNode{}, durable: map[string]memNode{}}
}

func (*memDir) isMemNode() {}

type memFile struct {
	data    []byte
	durable []byte
	synced  bool // durable is valid (Sync has run at least once)
}

func (*memFile) isMemNode() {}

// begin counts one mutating operation and applies any fault scheduled
// for it. It returns the fault kind the caller must apply (FaultNone,
// FaultShortWrite or FaultTornWrite; write-only kinds degrade to an
// error for non-write ops via the returned error) and/or an error that
// aborts the operation. alloc marks operations that consume disk
// space (writes, creations, appends, mkdir): they fail with
// ErrNoSpace while the disk is full, whereas space-freeing and
// metadata-only ops (remove, rename, sync) still succeed. Caller
// holds m.mu.
func (m *Mem) beginLocked(isWrite, alloc bool, desc string) (FaultKind, error) {
	if m.crashed {
		return FaultNone, ErrCrashed
	}
	m.ops++
	m.oplog = append(m.oplog, desc)
	for i, f := range m.faults {
		if f.Op != m.ops {
			if f.Op > m.ops {
				break
			}
			continue
		}
		m.faults = append(m.faults[:i], m.faults[i+1:]...)
		m.fired = append(m.fired, fmt.Sprintf("%s at op %d (%s)", f.Kind, f.Op, desc))
		switch f.Kind {
		case FaultCrash:
			m.crashed = true
			return FaultNone, ErrCrashed
		case FaultErr:
			return FaultNone, ErrInjected
		case FaultENOSPC:
			m.full = true
			if alloc {
				return FaultNone, ErrNoSpace
			}
			return FaultNone, nil
		case FaultShortWrite, FaultTornWrite:
			if isWrite {
				return f.Kind, nil
			}
			return FaultNone, ErrInjected
		}
	}
	if m.full && alloc {
		return FaultNone, ErrNoSpace
	}
	return FaultNone, nil
}

// norm cleans a path into slash-separated components relative to the
// Mem root.
func norm(p string) []string {
	p = path.Clean(filepath.ToSlash(p))
	p = strings.TrimPrefix(p, "/")
	if p == "." || p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// lookupDir resolves the directory at parts, optionally creating the
// chain. Caller holds m.mu.
func (m *Mem) lookupDirLocked(parts []string, create bool) (*memDir, error) {
	d := m.root
	for _, name := range parts {
		n, ok := d.entries[name]
		if !ok {
			if !create {
				return nil, fs.ErrNotExist
			}
			nd := newMemDir()
			d.entries[name] = nd
			// Directory creation is journaled (see the Mem doc): the
			// new entry is durable immediately, so a crash cannot drop
			// the data-dir chain itself.
			d.durable[name] = nd
			d = nd
			continue
		}
		nd, ok := n.(*memDir)
		if !ok {
			return nil, fmt.Errorf("faultfs: %s is a file, not a directory", name)
		}
		d = nd
	}
	return d, nil
}

func pathErr(op, name string, err error) error {
	return &fs.PathError{Op: op, Path: name, Err: err}
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(p string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.beginLocked(false, true, "mkdirall "+p); err != nil {
		return pathErr("mkdir", p, err)
	}
	_, err := m.lookupDirLocked(norm(p), true)
	if err != nil {
		return pathErr("mkdir", p, err)
	}
	return nil
}

// CreateTemp implements FS. Temp names are deterministic (a process
// counter replaces the pattern's "*").
func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, err := m.lookupDirLocked(norm(dir), false)
	if err != nil {
		return nil, pathErr("createtemp", dir, err)
	}
	m.tmpSeq++
	name := strings.Replace(pattern, "*", fmt.Sprintf("%d", m.tmpSeq), 1)
	full := path.Join(filepath.ToSlash(dir), name)
	if _, err := m.beginLocked(false, true, "create "+full); err != nil {
		return nil, pathErr("createtemp", dir, err)
	}
	if _, exists := d.entries[name]; exists {
		return nil, pathErr("createtemp", full, fs.ErrExist)
	}
	f := &memFile{}
	d.entries[name] = f
	return &memHandle{m: m, f: f, path: full}, nil
}

// OpenAppend implements FS. Opening an existing file resumes appending
// at its current tail (Write always appends in this model); a missing
// file is created as a volatile entry, like CreateTemp, until its
// directory is synced. The crash semantics are exactly a journal's: a
// Sync makes the whole prefix so far durable, and a crash tears a
// never-synced tail at a seeded length.
func (m *Mem) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	full := filepath.ToSlash(name)
	if _, err := m.beginLocked(false, true, "openappend "+full); err != nil {
		return nil, pathErr("openappend", name, err)
	}
	parts := norm(name)
	if len(parts) == 0 {
		return nil, pathErr("openappend", name, fs.ErrInvalid)
	}
	d, err := m.lookupDirLocked(parts[:len(parts)-1], false)
	if err != nil {
		return nil, pathErr("openappend", name, err)
	}
	leaf := parts[len(parts)-1]
	if n, ok := d.entries[leaf]; ok {
		f, ok := n.(*memFile)
		if !ok {
			return nil, pathErr("openappend", name, fmt.Errorf("faultfs: %s is a directory", name))
		}
		return &memHandle{m: m, f: f, path: full}, nil
	}
	f := &memFile{}
	d.entries[leaf] = f
	return &memHandle{m: m, f: f, path: full}, nil
}

// Rename implements FS. Both the removal of oldpath and the appearance
// of newpath are volatile until their directory is synced.
func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.beginLocked(false, false, "rename "+filepath.ToSlash(oldpath)+" -> "+filepath.ToSlash(newpath)); err != nil {
		return pathErr("rename", oldpath, err)
	}
	op, np := norm(oldpath), norm(newpath)
	if len(op) == 0 || len(np) == 0 {
		return pathErr("rename", oldpath, fs.ErrInvalid)
	}
	od, err := m.lookupDirLocked(op[:len(op)-1], false)
	if err != nil {
		return pathErr("rename", oldpath, err)
	}
	n, ok := od.entries[op[len(op)-1]]
	if !ok {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	nd, err := m.lookupDirLocked(np[:len(np)-1], false)
	if err != nil {
		return pathErr("rename", newpath, err)
	}
	delete(od.entries, op[len(op)-1])
	nd.entries[np[len(np)-1]] = n
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.beginLocked(false, false, "remove "+filepath.ToSlash(name)); err != nil {
		return pathErr("remove", name, err)
	}
	parts := norm(name)
	if len(parts) == 0 {
		return pathErr("remove", name, fs.ErrInvalid)
	}
	d, err := m.lookupDirLocked(parts[:len(parts)-1], false)
	if err != nil {
		return pathErr("remove", name, err)
	}
	leaf := parts[len(parts)-1]
	if _, ok := d.entries[leaf]; !ok {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	delete(d.entries, leaf)
	return nil
}

// RemoveAll implements FS.
func (m *Mem) RemoveAll(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.beginLocked(false, false, "removeall "+filepath.ToSlash(p)); err != nil {
		return pathErr("removeall", p, err)
	}
	parts := norm(p)
	if len(parts) == 0 {
		return pathErr("removeall", p, fs.ErrInvalid)
	}
	d, err := m.lookupDirLocked(parts[:len(parts)-1], false)
	if err != nil {
		return nil // os.RemoveAll: missing path is success
	}
	delete(d.entries, parts[len(parts)-1])
	return nil
}

// ReadFile implements FS. Reads are not counted as fault ops but fail
// once crashed.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, pathErr("read", name, ErrCrashed)
	}
	f, err := m.lookupFileLocked(name)
	if err != nil {
		return nil, pathErr("read", name, err)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *Mem) lookupFileLocked(name string) (*memFile, error) {
	parts := norm(name)
	if len(parts) == 0 {
		return nil, fs.ErrInvalid
	}
	d, err := m.lookupDirLocked(parts[:len(parts)-1], false)
	if err != nil {
		return nil, err
	}
	n, ok := d.entries[parts[len(parts)-1]]
	if !ok {
		return nil, fs.ErrNotExist
	}
	f, ok := n.(*memFile)
	if !ok {
		return nil, fmt.Errorf("faultfs: %s is a directory", name)
	}
	return f, nil
}

// ReadDir implements FS.
func (m *Mem) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, pathErr("readdir", name, ErrCrashed)
	}
	d, err := m.lookupDirLocked(norm(name), false)
	if err != nil {
		return nil, pathErr("readdir", name, err)
	}
	names := make([]string, 0, len(d.entries))
	for n := range d.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, 0, len(names))
	for _, n := range names {
		_, isDir := d.entries[n].(*memDir)
		out = append(out, memDirEntry{name: n, dir: isDir})
	}
	return out, nil
}

// Glob implements FS for patterns without "**" (filepath.Match per
// path segment, like filepath.Glob).
func (m *Mem) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	segs := norm(pattern)
	matches := []string{}
	var walk func(d *memDir, at int, prefix string) error
	walk = func(d *memDir, at int, prefix string) error {
		if at == len(segs) {
			return nil
		}
		names := make([]string, 0, len(d.entries))
		for n := range d.entries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ok, err := path.Match(segs[at], n)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			full := n
			if prefix != "" {
				full = prefix + "/" + n
			}
			if at == len(segs)-1 {
				matches = append(matches, full)
				continue
			}
			if sub, isDir := d.entries[n].(*memDir); isDir {
				if err := walk(sub, at+1, full); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(m.root, 0, ""); err != nil {
		return nil, err
	}
	return matches, nil
}

// SyncDir implements FS: the directory's current entry set becomes the
// crash-durable one.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.beginLocked(false, false, "syncdir "+filepath.ToSlash(dir)); err != nil {
		return pathErr("syncdir", dir, err)
	}
	d, err := m.lookupDirLocked(norm(dir), false)
	if err != nil {
		return pathErr("syncdir", dir, err)
	}
	d.durable = make(map[string]memNode, len(d.entries))
	for name, n := range d.entries {
		d.durable[name] = n
	}
	return nil
}

// memHandle is an open Mem file.
type memHandle struct {
	m      *Mem
	f      *memFile
	path   string
	closed bool
}

// Write implements io.Writer with fault semantics: FaultShortWrite
// persists a seeded prefix and errors, FaultTornWrite persists
// everything but flips one seeded byte and reports success.
func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, pathErr("write", h.path, fs.ErrClosed)
	}
	kind, err := h.m.beginLocked(true, true, fmt.Sprintf("write %s len=%d", h.path, len(p)))
	if err != nil {
		return 0, pathErr("write", h.path, err)
	}
	switch kind {
	case FaultShortWrite:
		n := h.m.rng.Intn(len(p) + 1)
		h.f.data = append(h.f.data, p[:n]...)
		return n, pathErr("write", h.path, ErrInjected)
	case FaultTornWrite:
		at := len(h.f.data)
		h.f.data = append(h.f.data, p...)
		if len(p) > 0 {
			h.f.data[at+h.m.rng.Intn(len(p))] ^= 0xff
		}
		return len(p), nil
	default:
		h.f.data = append(h.f.data, p...)
		return len(p), nil
	}
}

// Sync makes the file's current contents crash-durable.
func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return pathErr("sync", h.path, fs.ErrClosed)
	}
	if _, err := h.m.beginLocked(false, false, "sync "+h.path); err != nil {
		return pathErr("sync", h.path, err)
	}
	h.f.durable = append(h.f.durable[:0:0], h.f.data...)
	h.f.synced = true
	return nil
}

// Close implements File. Closing is not a counted op (it does not
// touch disk state in the durability model).
func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return pathErr("close", h.path, fs.ErrClosed)
	}
	h.closed = true
	return nil
}

// Name implements File.
func (h *memHandle) Name() string { return h.path }

// memDirEntry implements fs.DirEntry minimally.
type memDirEntry struct {
	name string
	dir  bool
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (fs.FileInfo, error) { return memFileInfo{e}, nil }

// memFileInfo is the minimal fs.FileInfo behind memDirEntry.Info.
type memFileInfo struct{ e memDirEntry }

func (i memFileInfo) Name() string { return i.e.name }
func (i memFileInfo) Size() int64  { return 0 }
func (i memFileInfo) Mode() fs.FileMode {
	return i.e.Type()
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.e.dir }
func (i memFileInfo) Sys() any           { return nil }
