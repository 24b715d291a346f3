package journal

// Storage providers: the journal's only contact with the outside world.
// The writer and reader speak this narrow interface so the same record
// format, recovery scan, and index logic run over real files in
// production and over in-memory buffers in tests — the provider split
// voedger's istorage takes, reduced to what an append-only segment store
// actually needs (create, open, list, remove, truncate, rename,
// recycle, directory sync).

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// WriteFile is an open segment being appended to.
type WriteFile interface {
	io.Writer

	// Sync flushes the file to stable storage (fsync for real files, a
	// no-op for memory).
	Sync() error

	io.Closer
}

// ReadFile is an open segment being read. ReaderAt supports the
// violation-anchor seek path (read one record at a known offset without
// disturbing a sequential scan).
type ReadFile interface {
	io.ReadSeeker
	io.ReaderAt
	io.Closer
}

// Provider is the pluggable storage behind a journal: a flat namespace
// of named blobs. Implementations must serialize their own metadata
// operations; the journal serializes writes itself.
type Provider interface {
	// Name identifies the backing store for logs and /statusz
	// ("dir:/var/journal", "memory").
	Name() string

	// List returns every stored name, in any order.
	List() ([]string, error)

	// Create makes (or truncates) a blob for writing.
	Create(name string) (WriteFile, error)

	// Open opens an existing blob for reading.
	Open(name string) (ReadFile, error)

	// Size reports a blob's current length in bytes.
	Size(name string) (int64, error)

	// Remove deletes a blob. Removing a missing blob is an error.
	Remove(name string) error

	// Truncate cuts a blob to size bytes: recovery's torn-tail repair,
	// and the seal-time trim of a recycled segment's stale tail.
	Truncate(name string, size int64) error

	// Rename moves a blob to a new name, replacing any blob already
	// there. Rotation uses it to park retired segments for reuse and to
	// hand a parked file its next segment name.
	Rename(old, new string) error

	// Recycle reopens an existing blob for writing from offset zero
	// without releasing its storage: new bytes overwrite old in place,
	// and the old tail survives past the write point until truncated.
	// Rotation uses it to reuse a retired segment's already-allocated
	// blocks instead of growing a fresh file. Record checksums are
	// seeded per segment incarnation, so the stale tail can never scan
	// as valid.
	Recycle(name string) (WriteFile, error)

	// SyncDir makes the namespace operations before it (create, rename,
	// remove) durable: fsync of the directory for files, a no-op for
	// memory.
	SyncDir() error
}

// --- file provider ---

// fileProvider stores blobs as plain files in one directory, written
// through the journal writer's append buffer.
type fileProvider struct {
	dir string
}

// OpenDir returns a Provider over files in dir, creating it if needed.
func OpenDir(dir string) (Provider, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	return &fileProvider{dir: dir}, nil
}

func (p *fileProvider) Name() string { return "dir:" + p.dir }

func (p *fileProvider) List() ([]string, error) {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (p *fileProvider) Create(name string) (WriteFile, error) {
	return os.OpenFile(filepath.Join(p.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (p *fileProvider) Open(name string) (ReadFile, error) {
	return os.Open(filepath.Join(p.dir, name))
}

func (p *fileProvider) Size(name string) (int64, error) {
	fi, err := os.Stat(filepath.Join(p.dir, name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (p *fileProvider) Remove(name string) error {
	return os.Remove(filepath.Join(p.dir, name))
}

func (p *fileProvider) Truncate(name string, size int64) error {
	return os.Truncate(filepath.Join(p.dir, name), size)
}

func (p *fileProvider) Rename(old, new string) error {
	return os.Rename(filepath.Join(p.dir, old), filepath.Join(p.dir, new))
}

func (p *fileProvider) Recycle(name string) (WriteFile, error) {
	return os.OpenFile(filepath.Join(p.dir, name), os.O_WRONLY, 0o644)
}

func (p *fileProvider) SyncDir() error {
	if runtime.GOOS == "windows" {
		// Windows cannot flush a directory handle; NTFS journals its
		// namespace changes itself.
		return nil
	}
	d, err := os.Open(p.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- memory provider ---

// memProvider stores blobs in process memory — the test provider, and
// the reference the file provider's behavior is checked against.
type memProvider struct {
	mu    sync.Mutex
	blobs map[string]*[]byte
}

// InMemory returns an empty memory-backed Provider.
func InMemory() Provider {
	return &memProvider{blobs: make(map[string]*[]byte)}
}

func (p *memProvider) Name() string { return "memory" }

func (p *memProvider) List() ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.blobs))
	for n := range p.blobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (p *memProvider) Create(name string) (WriteFile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := new([]byte)
	p.blobs[name] = b
	return &memWriteFile{p: p, b: b}, nil
}

func (p *memProvider) Open(name string) (ReadFile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.blobs[name]
	if !ok {
		return nil, fmt.Errorf("journal: open %s: %w", name, os.ErrNotExist)
	}
	// Snapshot the contents: a reader holds a stable view even if the
	// writer keeps appending, matching what a file read sees in practice
	// for the sealed segments the reader cares about.
	return &memReadFile{Reader: bytes.NewReader(append([]byte(nil), *b...))}, nil
}

func (p *memProvider) Size(name string) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.blobs[name]
	if !ok {
		return 0, fmt.Errorf("journal: size %s: %w", name, os.ErrNotExist)
	}
	return int64(len(*b)), nil
}

func (p *memProvider) Remove(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.blobs[name]; !ok {
		return fmt.Errorf("journal: remove %s: %w", name, os.ErrNotExist)
	}
	delete(p.blobs, name)
	return nil
}

func (p *memProvider) Truncate(name string, size int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.blobs[name]
	if !ok {
		return fmt.Errorf("journal: truncate %s: %w", name, os.ErrNotExist)
	}
	if size < 0 || size > int64(len(*b)) {
		return fmt.Errorf("journal: truncate %s to %d bytes of %d", name, size, len(*b))
	}
	*b = (*b)[:size]
	return nil
}

func (p *memProvider) Rename(old, new string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.blobs[old]
	if !ok {
		return fmt.Errorf("journal: rename %s: %w", old, os.ErrNotExist)
	}
	p.blobs[new] = b
	delete(p.blobs, old)
	return nil
}

func (p *memProvider) Recycle(name string) (WriteFile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.blobs[name]
	if !ok {
		return nil, fmt.Errorf("journal: recycle %s: %w", name, os.ErrNotExist)
	}
	// Overwrite in place from offset zero, old tail preserved — the same
	// stale-bytes hazard a recycled file on disk has, so the seeded-CRC
	// scan gets exercised against the memory provider too.
	return &memWriteFile{p: p, b: b}, nil
}

func (p *memProvider) SyncDir() error { return nil }

type memWriteFile struct {
	p   *memProvider
	b   *[]byte
	off int
}

func (f *memWriteFile) Write(d []byte) (int, error) {
	f.p.mu.Lock()
	b := *f.b
	if need := f.off + len(d); need > len(b) {
		if need <= cap(b) {
			b = b[:need]
		} else {
			b = append(b, make([]byte, need-len(b))...)
		}
	}
	copy(b[f.off:], d)
	f.off += len(d)
	*f.b = b
	f.p.mu.Unlock()
	return len(d), nil
}

func (f *memWriteFile) Sync() error  { return nil }
func (f *memWriteFile) Close() error { return nil }

type memReadFile struct {
	*bytes.Reader
}

func (f *memReadFile) Close() error { return nil }
