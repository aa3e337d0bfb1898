package store

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blinkml/internal/dataset"
)

// ErrNotFound is returned for lookups and deletes of unknown dataset ids.
var ErrNotFound = errors.New("store: dataset not found")

// Observer receives store events; the serving layer implements it to feed
// the /metrics counters. Methods must be safe for concurrent use.
type Observer interface {
	// IngestDone fires after a successful ingest.
	IngestDone(rows int, bytes int64, d time.Duration)
	// Materialized fires after each batch of rows is read off disk.
	Materialized(rows int, d time.Duration)
}

// Store is a persistent, concurrency-safe dataset registry rooted at one
// directory: each dataset is a subdirectory in the binary format described
// in the package comment. A store reopened on the same directory serves
// the same datasets it did before the restart.
type Store struct {
	dir string
	obs Observer

	mu   sync.RWMutex
	sets map[string]*Handle
	seq  uint64 // last id issued (monotonic, survives restarts)
}

// Open opens (creating if needed) a store rooted at dir, recovering every
// completed ingest and sweeping directories any crashed ingest left
// behind. Datasets that fail to open are skipped, not fatal: one corrupt
// directory must not take down the whole store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{dir: dir, sets: make(map[string]*Handle)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "ingest-") {
			os.RemoveAll(filepath.Join(dir, name)) // crashed ingest
			continue
		}
		if !strings.HasPrefix(name, "d-") {
			continue
		}
		// Recover seq from every d- directory, readable or not: an
		// unreadable (future-version, corrupt) dataset still owns its id,
		// and reissuing it would collide on the promote rename.
		if n, err := strconv.ParseUint(strings.TrimPrefix(name, "d-"), 10, 64); err == nil && n > s.seq {
			s.seq = n
		}
		sub := filepath.Join(dir, name)
		man, err := readManifest(sub)
		if err != nil {
			continue // incomplete or future-version dataset; leave it on disk
		}
		h, err := openHandle(name, sub, man, nil)
		if err != nil {
			continue
		}
		s.sets[name] = h
	}
	return s, nil
}

// SetObserver installs the metrics observer on the store and every open
// handle. Call it before serving traffic.
func (s *Store) SetObserver(obs Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = obs
	for _, h := range s.sets {
		h.obs = obs
	}
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the handle for id. If the id is unknown in memory but a
// completed dataset directory for it exists on disk — another process
// (the blinkml-data CLI) imported it since this store was opened — the
// dataset is adopted, so a CLI import next to a running server is
// trainable without a restart. (Concurrent *writers* on one directory
// remain unsupported: each process issues ids from its own counter.)
func (s *Store) Get(id string) (*Handle, error) {
	s.mu.RLock()
	h, ok := s.sets[id]
	s.mu.RUnlock()
	if ok {
		return h, nil
	}
	// Only well-formed ids may touch the filesystem: the id arrives from
	// the HTTP API, and anything but d-<digits> (path separators, "..")
	// must not turn into a path probe.
	if !validID(id) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	sub := filepath.Join(s.dir, id)
	man, err := readManifest(sub)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.sets[id]; ok { // raced with another adopter
		return h, nil
	}
	h, err = openHandle(id, sub, man, s.obs)
	if err != nil {
		return nil, err
	}
	s.sets[id] = h
	if n, err := strconv.ParseUint(strings.TrimPrefix(id, "d-"), 10, 64); err == nil && n > s.seq {
		s.seq = n
	}
	return h, nil
}

// validID reports whether id has the exact d-<digits> shape the store
// issues.
func validID(id string) bool {
	if !strings.HasPrefix(id, "d-") || len(id) == 2 {
		return false
	}
	for _, c := range id[2:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// List returns the stored ids in ascending order.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.sets))
	for id := range s.sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns the number of stored datasets.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sets)
}

// SparseStats returns the aggregate over sparse-encoded datasets: how many
// stored rows use the sparse record format and their total stored entries.
// The serving layer exports both as gauges.
func (s *Store) SparseStats() (rows, nnz int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.sets {
		if h.man.Sparse {
			rows += int64(h.man.Rows)
			nnz += h.man.NNZ
		}
	}
	return rows, nnz
}

// DiskBytes returns the total on-disk footprint of all stored datasets.
func (s *Store) DiskBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, h := range s.sets {
		total += h.DiskBytes()
	}
	return total
}

// Delete evicts id from memory and disk. In-flight materializations racing
// the delete fail with a read error rather than corrupting anything.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.sets[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(s.sets, id)
	h.close()
	if err := os.RemoveAll(h.dir); err != nil {
		return fmt.Errorf("store: delete %s: %w", id, err)
	}
	return nil
}

// IngestOptions configures one streaming ingest.
type IngestOptions struct {
	// Name labels the dataset (defaults to the assigned id).
	Name string
	// Format is "csv" or "libsvm".
	Format string
	// Task tags the label semantics; for MultiClassification the class
	// count is inferred from the labels unless NumClasses is set.
	Task       dataset.Task
	NumClasses int
	// LabelCol is the CSV label column (nil = last column; negative counts
	// from the end). Ignored for LibSVM.
	LabelCol *int
	// Dim declares the ambient dimension for LibSVM (0 = infer from the
	// largest index seen). For CSV it instead validates the feature count.
	Dim int
	// MaxLineBytes caps one input line (default dataset.DefaultMaxLineBytes).
	MaxLineBytes int
}

// Ingest streams r — never fully resident — into a new stored dataset and
// returns its open handle. The write is crash-safe: everything lands in a
// temporary directory, the manifest is written last, and only then is the
// directory renamed to its id.
func (s *Store) Ingest(r io.Reader, opt IngestOptions) (*Handle, error) {
	sparse := false
	switch opt.Format {
	case "csv":
	case "libsvm":
		sparse = true
	default:
		return nil, fmt.Errorf("store: unknown format %q (want csv|libsvm)", opt.Format)
	}

	start := time.Now()
	tmp, err := os.MkdirTemp(s.dir, "ingest-*")
	if err != nil {
		return nil, fmt.Errorf("store: ingest: %w", err)
	}

	ing, err := newIngestWriters(tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	// Every error exit must release the two data-file descriptors (close
	// is a no-op after a successful finish) or repeated bad uploads would
	// bleed the process dry of fds.
	cleanup := func() {
		ing.close()
		os.RemoveAll(tmp)
	}

	man := &Manifest{
		FormatVersion: FormatVersion,
		Name:          opt.Name,
		Task:          opt.Task.String(),
		Sparse:        sparse,
		SourceFormat:  opt.Format,
		LabelMin:      math.Inf(1),
		LabelMax:      math.Inf(-1),
	}
	var labelSum float64
	maxClass := -1
	maxIdx := int32(-1)
	var encBuf []byte

	consume := func(row dataset.RowData) error {
		// A bad label fails on upload, not inside a training worker.
		if err := dataset.LabelError(opt.Task, row.Label); err != nil {
			return fmt.Errorf("store: line %d: %w", row.Line, err)
		}
		// A NaN or ±Inf feature would make every training objective over
		// a sample holding its row non-finite.
		if j, v, found := dataset.FirstNonFinite(row.Idx, row.Val); found {
			return fmt.Errorf("store: line %d: feature %d is %v, not a finite value", row.Line, j, v)
		}
		if sparse {
			if n := len(row.Idx); n > 0 && row.Idx[n-1] > maxIdx {
				maxIdx = row.Idx[n-1]
			}
			man.NNZ += int64(len(row.Idx))
		} else {
			man.Dim = len(row.Val)
			man.NNZ += int64(len(row.Val))
		}
		if c := int(row.Label); opt.Task == dataset.MultiClassification && c > maxClass {
			maxClass = c
		}
		if row.Label < man.LabelMin {
			man.LabelMin = row.Label
		}
		if row.Label > man.LabelMax {
			man.LabelMax = row.Label
		}
		labelSum += row.Label
		man.Rows++
		encBuf = encodeRow(encBuf[:0], sparse, row)
		return ing.writeRecord(encBuf)
	}

	sopt := dataset.StreamOptions{LabelCol: opt.LabelCol, Dim: opt.Dim, MaxLineBytes: opt.MaxLineBytes}
	if sparse {
		err = dataset.StreamLibSVM(r, sopt, consume)
	} else {
		err = dataset.StreamCSV(r, sopt, consume)
	}
	if err == nil {
		err = ing.finish(man)
	}
	if err != nil {
		cleanup()
		return nil, err
	}
	if man.Rows == 0 {
		cleanup()
		return nil, errors.New("store: ingest: input has no rows")
	}
	if sparse {
		man.Dim = opt.Dim
		if man.Dim <= 0 {
			man.Dim = int(maxIdx) + 1
		}
	}
	if man.Dim <= 0 {
		cleanup()
		return nil, errors.New("store: ingest: could not determine dimension (empty rows?)")
	}
	if opt.Task == dataset.MultiClassification {
		man.NumClasses = opt.NumClasses
		if man.NumClasses == 0 {
			man.NumClasses = maxClass + 1
		} else if maxClass >= man.NumClasses || man.NumClasses > dataset.MaxClasses {
			cleanup()
			return nil, fmt.Errorf("store: ingest: class label %d with declared %d classes (at most %d)", maxClass, man.NumClasses, dataset.MaxClasses)
		}
	}
	man.LabelMean = labelSum / float64(man.Rows)
	man.CreatedAt = time.Now().UTC()

	// Reserve the id, name the dataset, seal the manifest, then atomically
	// promote the directory.
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("d-%06d", s.seq)
	s.mu.Unlock()
	if man.Name == "" {
		man.Name = id
	}
	if err := writeManifest(tmp, man); err != nil {
		cleanup()
		return nil, err
	}
	dst := filepath.Join(s.dir, id)
	if err := os.Rename(tmp, dst); err != nil {
		cleanup()
		return nil, fmt.Errorf("store: ingest: %w", err)
	}
	h, err := openHandle(id, dst, man, s.observer())
	if err != nil {
		os.RemoveAll(dst)
		return nil, err
	}
	s.mu.Lock()
	s.sets[id] = h
	s.mu.Unlock()
	if obs := s.observer(); obs != nil {
		obs.IngestDone(man.Rows, h.DiskBytes(), time.Since(start))
	}
	return h, nil
}

func (s *Store) observer() Observer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obs
}

// ingestWriters owns the two data files during an ingest: buffered writes,
// CRC32 accumulated as bytes go by, offsets appended per record.
type ingestWriters struct {
	rowsF, idxF *os.File
	rowsW, idxW *bufio.Writer
	rowsCRC     *crcWriter
	idxCRC      *crcWriter
	off         uint64
	closed      bool
}

func newIngestWriters(dir string) (*ingestWriters, error) {
	rowsF, err := os.Create(filepath.Join(dir, "rows.bin"))
	if err != nil {
		return nil, fmt.Errorf("store: ingest: %w", err)
	}
	idxF, err := os.Create(filepath.Join(dir, "index.bin"))
	if err != nil {
		rowsF.Close()
		return nil, fmt.Errorf("store: ingest: %w", err)
	}
	w := &ingestWriters{rowsF: rowsF, idxF: idxF}
	w.rowsCRC = &crcWriter{w: rowsF}
	w.idxCRC = &crcWriter{w: idxF}
	w.rowsW = bufio.NewWriterSize(w.rowsCRC, 1<<20)
	w.idxW = bufio.NewWriterSize(w.idxCRC, 1<<16)
	return w, nil
}

func (w *ingestWriters) writeRecord(rec []byte) error {
	var off [8]byte
	for i := 0; i < 8; i++ {
		off[i] = byte(w.off >> (8 * i))
	}
	if _, err := w.idxW.Write(off[:]); err != nil {
		return fmt.Errorf("store: ingest: write index: %w", err)
	}
	if _, err := w.rowsW.Write(rec); err != nil {
		return fmt.Errorf("store: ingest: write rows: %w", err)
	}
	w.off += uint64(len(rec))
	return nil
}

// finish flushes and closes both files and records sizes and checksums in
// the manifest.
func (w *ingestWriters) finish(man *Manifest) error {
	if err := w.rowsW.Flush(); err != nil {
		return fmt.Errorf("store: ingest: flush rows: %w", err)
	}
	if err := w.idxW.Flush(); err != nil {
		return fmt.Errorf("store: ingest: flush index: %w", err)
	}
	if err := w.rowsF.Close(); err != nil {
		return fmt.Errorf("store: ingest: close rows: %w", err)
	}
	if err := w.idxF.Close(); err != nil {
		return fmt.Errorf("store: ingest: close index: %w", err)
	}
	w.closed = true
	man.RowBytes = int64(w.rowsCRC.n)
	man.IndexBytes = int64(w.idxCRC.n)
	man.RowCRC32 = w.rowsCRC.crc
	man.IndexCRC32 = w.idxCRC.crc
	return nil
}

// close releases the descriptors on an abandoned ingest.
func (w *ingestWriters) close() {
	if w.closed {
		return
	}
	w.closed = true
	w.rowsF.Close()
	w.idxF.Close()
}

// crcWriter forwards writes while accumulating a CRC32 and byte count.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}
