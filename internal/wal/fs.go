// The injectable filesystem under the write-ahead log. The log never
// touches the disk directly: it goes through FS, so tests and the
// chaos harness can substitute an in-memory disk with fault injection
// — crash-mid-fsync (unsynced writes lost, the final record torn),
// disk-full, and slow-fsync stragglers — while production uses the
// real directory-backed implementation.
package wal

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"circus/internal/precise"
)

// ErrNoSpace reports a write rejected because the disk is full.
var ErrNoSpace = errors.New("wal: no space left on device")

// ErrCrashed reports an operation against a crashed (powered-off)
// in-memory disk.
var ErrCrashed = errors.New("wal: disk crashed")

// File is the writable handle the log appends through. Writes are not
// durable until Sync returns.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem the log lives on: a flat namespace of files.
// Implementations must be safe for concurrent use.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// ReadFile returns the entire content of name.
	ReadFile(name string) ([]byte, error)
	// List returns every file name, sorted.
	List() ([]string, error)
	// Remove deletes name; removing a missing file is not an error.
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Sub returns a namespace rooted at name (a subdirectory), creating
	// it if needed, so one FS can host several logs.
	Sub(name string) FS
}

// ---------------------------------------------------------------------
// Directory-backed FS (the production disk).

type dirFS struct{ dir string }

// DirFS returns an FS rooted at dir, creating it if needed.
func DirFS(dir string) FS { return dirFS{dir: dir} }

func (d dirFS) Create(name string) (File, error) {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(filepath.Join(d.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (d dirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.dir, name))
}

func (d dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d dirFS) Remove(name string) error {
	err := os.Remove(filepath.Join(d.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

func (d dirFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(d.dir, oldname), filepath.Join(d.dir, newname))
}

func (d dirFS) Sub(name string) FS { return dirFS{dir: filepath.Join(d.dir, name)} }

// ---------------------------------------------------------------------
// In-memory FS with crash semantics and fault injection.

// memFile models one file's page-cache split: durable bytes survive a
// power loss, buffered bytes are written but not yet synced and are
// (mostly) lost by one — a crash keeps a random prefix, the torn-write
// behaviour real disks exhibit.
type memFile struct {
	durable  []byte
	buffered []byte
}

// MemFS is an in-memory FS with power-loss semantics: writes land in a
// volatile buffer until Sync moves them to the durable image; Crash
// discards the volatile buffers, keeping a seeded random prefix of
// each (the torn final record). Fault injection knobs model disk-full
// (quota), fsync stragglers (sync delay), and fsync failure.
type MemFS struct {
	mu        sync.Mutex
	rng       *rand.Rand
	files     map[string]*memFile
	subs      map[string]*MemFS
	crashed   bool
	failSync  bool
	quota     int // max durable+buffered bytes; 0 = unlimited
	syncDelay time.Duration
	fsyncs    int64
}

// NewMemFS returns an empty in-memory disk whose torn-write behaviour
// is driven by seed.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{
		rng:   rand.New(rand.NewSource(seed)),
		files: make(map[string]*memFile),
		subs:  make(map[string]*MemFS),
	}
}

// Crash powers the disk off: every unsynced buffer is discarded except
// a random prefix (the torn tail), and all operations fail until
// Restart. Sub-filesystems crash with their parent.
func (m *MemFS) Crash() {
	m.mu.Lock()
	m.crashed = true
	for _, f := range m.files {
		if n := len(f.buffered); n > 0 {
			keep := m.rng.Intn(n + 1)
			f.durable = append(f.durable, f.buffered[:keep]...)
		}
		f.buffered = nil
	}
	subs := make([]*MemFS, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		s.Crash()
	}
}

// Restart powers the disk back on, also clearing any injected fsync
// failure. Quota and sync delay persist until explicitly lifted.
func (m *MemFS) Restart() {
	m.mu.Lock()
	m.crashed = false
	m.failSync = false
	subs := make([]*MemFS, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		s.Restart()
	}
}

// Crashed reports whether the disk is powered off.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// FailSyncs makes every subsequent Sync fail (crash-mid-fsync: the
// write happened, durability didn't) until Restart or FailSyncs(false).
func (m *MemFS) FailSyncs(fail bool) {
	m.mu.Lock()
	m.failSync = fail
	subs := make([]*MemFS, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		s.FailSyncs(fail)
	}
}

// FillDisk sets the quota to the bytes already used, so every further
// write fails with ErrNoSpace until SetQuota(0).
func (m *MemFS) FillDisk() {
	m.mu.Lock()
	m.quota = m.usedLocked()
	if m.quota == 0 {
		m.quota = 1 // an empty full disk still rejects writes
	}
	subs := make([]*MemFS, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		s.FillDisk()
	}
}

// SetQuota bounds the disk size in bytes; 0 lifts the bound.
func (m *MemFS) SetQuota(n int) {
	m.mu.Lock()
	m.quota = n
	subs := make([]*MemFS, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		s.SetQuota(n)
	}
}

// SetSyncDelay makes every Sync sleep d first — the slow-disk
// straggler. 0 restores a fast disk.
func (m *MemFS) SetSyncDelay(d time.Duration) {
	m.mu.Lock()
	m.syncDelay = d
	subs := make([]*MemFS, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		s.SetSyncDelay(d)
	}
}

// Fsyncs returns the number of successful syncs, including those of
// sub-filesystems.
func (m *MemFS) Fsyncs() int64 {
	m.mu.Lock()
	n := m.fsyncs
	subs := make([]*MemFS, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		n += s.Fsyncs()
	}
	return n
}

func (m *MemFS) usedLocked() int {
	n := 0
	for _, f := range m.files {
		n += len(f.durable) + len(f.buffered)
	}
	return n
}

type memHandle struct {
	fs   *MemFS
	name string
}

func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	f, ok := m.files[h.name]
	if !ok {
		// Recreated behind our back (rotation never does this); treat
		// the handle as stale.
		return 0, fmt.Errorf("wal: write to removed file %q", h.name)
	}
	if m.quota > 0 && m.usedLocked()+len(p) > m.quota {
		return 0, ErrNoSpace
	}
	f.buffered = append(f.buffered, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	delay := m.syncDelay
	m.mu.Unlock()
	if delay > 0 {
		precise.Sleep(delay)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.failSync {
		return errors.New("wal: injected fsync failure")
	}
	if f, ok := m.files[h.name]; ok {
		f.durable = append(f.durable, f.buffered...)
		f.buffered = f.buffered[:0] // keep the capacity for the next writes
	}
	m.fsyncs++
	return nil
}

func (h *memHandle) Close() error { return nil }

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

// ReadFile implements FS: a live (uncrashed) disk reads through the
// buffer cache, so unsynced writes are visible, exactly as on a real
// OS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	out := make([]byte, 0, len(f.durable)+len(f.buffered))
	out = append(out, f.durable...)
	out = append(out, f.buffered...)
	return out, nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS. The rename itself is modeled as atomic and
// immediately durable (metadata journaling); the content's durability
// is still whatever Sync made of it.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	f, ok := m.files[oldname]
	if !ok {
		return os.ErrNotExist
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Sub implements FS: sub-disks share the parent's failure mode (Crash,
// Restart, FailSyncs, quota, and sync delay cascade).
func (m *MemFS) Sub(name string) FS {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[name]
	if !ok {
		s = NewMemFS(m.rng.Int63())
		s.crashed = m.crashed
		s.failSync = m.failSync
		s.quota = m.quota
		s.syncDelay = m.syncDelay
		m.subs[name] = s
	}
	return s
}
