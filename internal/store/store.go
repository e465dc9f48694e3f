// Package store is the persistent, larger-than-RAM graph storage backend:
// an immutable mmap'd CSR segment format produced by a bulk loader, a
// write-ahead log + in-memory memtable overlaying topology and attribute
// mutations on the base segment (exactly like graph.Dynamic overlays a
// delta on an immutable CSR), and an admission-controlled page cache that
// keeps resident bytes under a configurable memory budget. It exists
// because the paper's whole premise (§2, Fig 2a) is serving GNN sampling
// over 10–100 TB graphs that cannot fit one node's memory: the storage
// tier must page graph structure off durable media while the sampler
// keeps its batch-first access pattern.
//
// A store on disk is a directory:
//
//	CURRENT          commit point: the active segment generation
//	seg-<N>.lsds     immutable CSR segment for generation N
//	wal-<N>.log      append-only mutation log folded into segment N+1
//
// Every read path is interchangeable with the in-memory backends behind
// the batch-first sampler.Store contract — sampler.New, pipeline.New, and
// cluster servers accept a DiskStore wherever they accept a
// sampler.LocalStore — and results are byte-identical for the same seed.
//
// Error taxonomy — match with errors.Is:
//
//	error              meaning
//	-----              -------
//	ErrCorrupt         a segment header/section, CURRENT file, or WAL
//	                   record failed its checksum or bounds validation;
//	                   the store refuses to serve guessed data (a torn
//	                   WAL *tail* is not corruption — crash recovery
//	                   truncates it and replays the clean prefix)
//	ErrBudgetExceeded  the configured memory budget cannot hold the
//	                   segment's offset index plus a single cache page
//	                   (PageSize bytes) — raise the budget
//	ErrExists          Create target already holds a store
//
// The facade re-exports them as lsdgnn.ErrStoreCorrupt,
// lsdgnn.ErrStoreBudget and lsdgnn.ErrStoreExists.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lsdgnn/internal/graph"
)

// Typed errors. Wrapped by every failure path, so errors.Is works through
// the context the wrapping adds.
var (
	// ErrCorrupt marks data that failed checksum or structural validation.
	ErrCorrupt = errors.New("store: corrupt data")
	// ErrBudgetExceeded marks a memory budget too small to hold the offset
	// index and one page.
	ErrBudgetExceeded = errors.New("store: memory budget exceeded")
	// ErrExists marks a Create over an existing store.
	ErrExists = errors.New("store: already exists")
)

// SyncMode selects WAL durability.
type SyncMode int

const (
	// SyncOS leaves WAL appends in the OS page cache (fsync only at
	// compaction commit points) — fast, loses the tail on power failure,
	// never serves corrupt data.
	SyncOS SyncMode = iota
	// SyncAlways fsyncs the WAL after every append (batch) — every acked
	// mutation survives power failure.
	SyncAlways
)

func (m SyncMode) String() string {
	switch m {
	case SyncOS:
		return "os"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// Config is the store configuration the lsdgnn facade accepts via
// WithStore. Its Path picks the substrate: empty serves from the
// in-process graph, and any other path serves from a persistent
// segment+WAL store in that directory.
type Config struct {
	// Path is the store directory; empty means serve from memory.
	Path string
	// MemoryBudget caps the resident bytes of a store on disk, its offset
	// index and cached pages (0 = unbudgeted: the whole segment is mmap'd
	// and the OS pages it).
	MemoryBudget int64
	// SyncMode selects WAL durability for a store on disk.
	SyncMode SyncMode
}

// PageSize is the budgeted page cache's one page size: the OS page. A
// sampler lookup takes its offsets from the in-memory index and wants only
// a run of about a hundred bytes, so a miss faults in the page holding it
// and no more — the fine-grained access AxE's coalescing-only cache is
// built around (Tech-4), rather than a coarse line that pays for bytes
// nobody asked for.
const PageSize = 4 << 10

// options collects Open/Create tuning.
type options struct {
	budget int64
	sync   SyncMode
	stats  *Stats
}

// Option tunes Open and Create.
type Option func(*options)

// WithMemoryBudget caps the bytes the store keeps resident for segment
// data. 0 (the default) mmaps the segment and lets the OS page it; a
// positive budget holds the segment's offset index, built at Open (about
// 2.1 bytes a vertex), and spends the rest on an admission-controlled page
// cache that evicts LRU pages to stay under budget. Open fails with
// ErrBudgetExceeded when the budget cannot hold the index and one page.
func WithMemoryBudget(bytes int64) Option {
	return func(o *options) { o.budget = bytes }
}

// WithSyncMode selects WAL durability (default SyncOS).
func WithSyncMode(m SyncMode) Option {
	return func(o *options) { o.sync = m }
}

// WithStats attaches a caller-owned Stats block instead of the store
// allocating its own — servers that pre-register the "store" layer at
// zero hand the same block to Open so the series continue seamlessly.
func WithStats(s *Stats) Option {
	return func(o *options) { o.stats = s }
}

func buildOptions(opts []Option) (options, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.budget > 0 && o.budget < PageSize {
		return o, fmt.Errorf("%w: budget %d below page size %d", ErrBudgetExceeded, o.budget, PageSize)
	}
	if o.stats == nil {
		o.stats = &Stats{}
	}
	return o, nil
}

// FromConfig opens the store at cfg.Path, first bulk-loading g into it
// when g is not nil and the directory holds no store yet. opts apply after
// cfg's (a server hands its pre-registered WithStats here). An empty path
// is an error: a Config without one serves from memory and opens no
// store.
func FromConfig(cfg Config, g *graph.Graph, opts ...Option) (*DiskStore, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("store: no path to open")
	}
	opts = append([]Option{WithMemoryBudget(cfg.MemoryBudget), WithSyncMode(cfg.SyncMode)}, opts...)
	if g != nil && !Exists(cfg.Path) {
		if err := Create(cfg.Path, g, opts...); err != nil {
			return nil, err
		}
	}
	return Open(cfg.Path, opts...)
}

// Exists reports whether dir holds a committed store (a CURRENT file).
// Bootstrap paths use it to decide between Open and a bulk-load Create.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, currentName))
	return err == nil
}

// --- store directory bookkeeping ---

const currentName = "CURRENT"

func segName(gen uint64) string { return fmt.Sprintf("seg-%d.lsds", gen) }
func walName(gen uint64) string { return fmt.Sprintf("wal-%d.log", gen) }

// readCurrent parses the CURRENT commit file: one line, "lsdstore <gen>".
func readCurrent(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, currentName))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) != 2 || fields[0] != "lsdstore" {
		return 0, fmt.Errorf("%w: malformed CURRENT %q", ErrCorrupt, string(b))
	}
	gen, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil || gen == 0 {
		return 0, fmt.Errorf("%w: malformed CURRENT generation %q", ErrCorrupt, fields[1])
	}
	return gen, nil
}

// writeCurrent commits a generation: write a temp file, fsync, rename over
// CURRENT, fsync the directory. Rename is the atomic commit point.
func writeCurrent(dir string, gen uint64) error {
	tmp := filepath.Join(dir, currentName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "lsdstore %d\n", gen); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames inside it are durable. Best-effort
// on platforms where directories reject Sync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
