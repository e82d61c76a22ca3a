// Package vfs is the injectable filesystem seam under the pipeline's
// two durability-critical writers: the crash-atomic dataset save and the
// resumable crawl's transaction spool. Production code writes
// through an FS value (OS in real runs); chaos tests substitute a
// seeded Faulty wrapper that injects short writes, ENOSPC, fsync
// errors, rename failures, and named crash points, so the
// crash-consistency contracts those writers claim can be exercised
// deterministically instead of trusted.
//
// The seam covers the write side only. Reads, recovery scans, and
// heal operations (spool truncation) go straight to the OS: the Faulty
// wrapper operates on real files in a real directory, so a test that
// "crashes" a writer can reopen the same directory with OS and assert
// that resume repairs what the fault tore.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the persistence writers need: they
// only write. WriteAt serves the dataset encoder's length back-patching.
type File interface {
	io.Writer
	io.WriterAt
	io.Closer
	Sync() error
	Name() string
}

// FS is the filesystem seam. All paths are OS paths — implementations
// wrap the real filesystem rather than simulate one.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// OpenFile is the generalized open (os.OpenFile semantics).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates a directory path.
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making just-committed creates and
	// renames in it survive power loss.
	SyncDir(dir string) error
}

// OS is the passthrough FS used outside chaos tests.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// hitter is implemented by fault-injecting filesystems that honor
// named crash points.
type hitter interface {
	hit(point string) error
}

// Hit marks a named crash point in a writer's control flow. On the
// plain OS filesystem it is free and always nil; on a Faulty FS
// configured to crash at point, it trips the simulated crash and
// returns ErrCrashed (as does every later operation on that FS).
// Writers place Hit calls at the seams their crash-consistency story
// depends on — e.g. after the temp write but before the commit rename.
func Hit(fsys FS, point string) error {
	if h, ok := fsys.(hitter); ok {
		return h.hit(point)
	}
	return nil
}

// OrOS returns fsys, or OS when fsys is nil — the idiom for optional
// FS fields in config structs.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}
