package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Bundle format: a stored dataset as one self-describing stream, so a
// cluster worker can fetch a dataset from the coordinator's store over HTTP
// and land it in its own store byte-for-byte:
//
//	8-byte magic "BMLDSB01"
//	uint32 LE manifest length
//	manifest JSON (carries sizes and CRC32 checksums)
//	rows.bin   (Manifest.RowBytes bytes)
//	index.bin  (Manifest.IndexBytes bytes)
//
// Import verifies both payload checksums against the manifest before the
// dataset is promoted, so a truncated or corrupted transfer can never
// become a servable dataset.
var bundleMagic = [8]byte{'B', 'M', 'L', 'D', 'S', 'B', '0', '1'}

// ErrBundleExists is returned by ImportBundle when the id is already
// present; callers treat it as success after re-checking the checksums.
var ErrBundleExists = errors.New("store: dataset id already present")

// ExportTo streams the dataset as a bundle. It is a sequential read of both
// data files — no row decoding — so exporting costs disk bandwidth, not
// CPU.
func (h *Handle) ExportTo(w io.Writer) error {
	man, err := json.Marshal(h.man)
	if err != nil {
		return fmt.Errorf("store: export %s: encode manifest: %w", h.ID, err)
	}
	if _, err := w.Write(bundleMagic[:]); err != nil {
		return fmt.Errorf("store: export %s: %w", h.ID, err)
	}
	var sz [4]byte
	binary.LittleEndian.PutUint32(sz[:], uint32(len(man)))
	if _, err := w.Write(sz[:]); err != nil {
		return fmt.Errorf("store: export %s: %w", h.ID, err)
	}
	if _, err := w.Write(man); err != nil {
		return fmt.Errorf("store: export %s: %w", h.ID, err)
	}
	if _, err := io.Copy(w, io.NewSectionReader(h.rows, 0, h.man.RowBytes)); err != nil {
		return fmt.Errorf("store: export %s: rows: %w", h.ID, err)
	}
	if _, err := io.Copy(w, io.NewSectionReader(h.idx, 0, h.man.IndexBytes)); err != nil {
		return fmt.Errorf("store: export %s: index: %w", h.ID, err)
	}
	return nil
}

// ReadBundleManifest decodes and validates a bundle's header, leaving r
// positioned at the start of the rows payload.
func ReadBundleManifest(r io.Reader) (*Manifest, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("store: bundle: read magic: %w", err)
	}
	if magic != bundleMagic {
		return nil, fmt.Errorf("store: bundle: bad magic %q", magic[:])
	}
	var sz [4]byte
	if _, err := io.ReadFull(r, sz[:]); err != nil {
		return nil, fmt.Errorf("store: bundle: read manifest size: %w", err)
	}
	n := binary.LittleEndian.Uint32(sz[:])
	const maxManifest = 1 << 20
	if n == 0 || n > maxManifest {
		return nil, fmt.Errorf("store: bundle: manifest size %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("store: bundle: read manifest: %w", err)
	}
	return decodeManifest(buf)
}

// ImportBundle streams a bundle produced by ExportTo into this store under
// the given id (the id the exporting store issued — cluster workers mirror
// the coordinator's ids so one name means one dataset everywhere). The
// write is crash-safe like Ingest: payloads land in a temporary directory,
// checksums are verified against the manifest, the manifest is written
// last, and only then is the directory renamed to its id. If the id is
// already present with matching checksums the stream is drained cheaply and
// the existing handle is returned.
func (s *Store) ImportBundle(id string, r io.Reader) (*Handle, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: import: invalid dataset id %q", id)
	}
	man, err := ReadBundleManifest(r)
	if err != nil {
		return nil, err
	}
	if h, err := s.Get(id); err == nil {
		if h.man.RowCRC32 == man.RowCRC32 && h.man.IndexCRC32 == man.IndexCRC32 {
			return h, nil
		}
		return nil, fmt.Errorf("%w with different content: %q", ErrBundleExists, id)
	}

	tmp, err := os.MkdirTemp(s.dir, "ingest-*")
	if err != nil {
		return nil, fmt.Errorf("store: import: %w", err)
	}
	cleanup := func() { os.RemoveAll(tmp) }

	copyPart := func(name string, size int64, wantCRC uint32) error {
		f, err := os.Create(filepath.Join(tmp, name))
		if err != nil {
			return fmt.Errorf("store: import: %w", err)
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		crc := &crcWriter{w: bw}
		if _, err := io.CopyN(crc, r, size); err != nil {
			f.Close()
			return fmt.Errorf("store: import: copy %s: %w", name, err)
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("store: import: flush %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("store: import: close %s: %w", name, err)
		}
		if crc.crc != wantCRC {
			return fmt.Errorf("store: import: %s checksum %08x, manifest says %08x", name, crc.crc, wantCRC)
		}
		return nil
	}
	if err := copyPart("rows.bin", man.RowBytes, man.RowCRC32); err != nil {
		cleanup()
		return nil, err
	}
	if err := copyPart("index.bin", man.IndexBytes, man.IndexCRC32); err != nil {
		cleanup()
		return nil, err
	}
	if err := writeManifest(tmp, man); err != nil {
		cleanup()
		return nil, err
	}
	dst := filepath.Join(s.dir, id)
	if err := os.Rename(tmp, dst); err != nil {
		cleanup()
		// Lost a race with a concurrent import of the same id: adopt the
		// winner.
		if h, gerr := s.Get(id); gerr == nil {
			return h, nil
		}
		return nil, fmt.Errorf("store: import: %w", err)
	}
	h, err := openHandle(id, dst, man, s.observer())
	if err != nil {
		os.RemoveAll(dst)
		return nil, err
	}
	s.mu.Lock()
	s.sets[id] = h
	if n, err := strconv.ParseUint(strings.TrimPrefix(id, "d-"), 10, 64); err == nil && n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
	return h, nil
}
