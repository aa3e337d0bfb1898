// Package store implements BlinkML's persistent dataset store: CSV/LibSVM
// streams are ingested chunk-by-chunk into a compact binary row format with
// a fixed-size offset index, so a sample's records are located through the
// index and read in a few coalesced windows into one block, and an (ε, δ)
// training run against an N-row dataset materializes only the n rows it
// samples. The store is the dataset-side sibling of the serving
// layer's model registry: upload once, train and tune many times against a
// dataset id, survive restarts.
//
// On-disk layout — one directory per dataset under the store root:
//
//	d-000001/
//	  manifest.json   shape, task, label stats, sizes, CRC32 checksums
//	  rows.bin        row records, back to back (see below)
//	  index.bin       rows × uint64 little-endian offsets into rows.bin,
//	                  ascending: row i's record is [entry i, entry i+1)
//
// Row records (little-endian):
//
//	dense:  label float64 | dim × float64 values
//	sparse: label float64 | nnz uint32 | nnz × int32 indices | nnz × float64 values
//
// The manifest is written last and atomically, so a directory with a
// manifest is a complete ingest; directories without one are garbage from
// a crashed ingest and are swept on open. Float64 bits pass through encode
// and decode untouched, which is what makes store-backed training
// byte-identical to the in-memory path on the same seed.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"blinkml/internal/dataset"
)

// FormatVersion is the on-disk format version this package reads and
// writes.
const FormatVersion = 1

// Manifest is the checksummed metadata record of one stored dataset
// (manifest.json). It is everything the serving layer needs to admit a
// train request — shape, task, label stats — without touching rows.bin.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Name          string `json:"name"`
	Task          string `json:"task"`
	Rows          int    `json:"rows"`
	Dim           int    `json:"dim"`
	NumClasses    int    `json:"num_classes,omitempty"`
	// Sparse marks the row record encoding (LibSVM ingests are sparse, CSV
	// dense).
	Sparse bool `json:"sparse"`
	// NNZ is the total number of stored entries across all rows; NNZ/(Rows·Dim)
	// is the dataset's density.
	NNZ int64 `json:"nnz"`

	RowBytes   int64  `json:"row_bytes"`
	IndexBytes int64  `json:"index_bytes"`
	RowCRC32   uint32 `json:"row_crc32"`
	IndexCRC32 uint32 `json:"index_crc32"`

	LabelMin  float64 `json:"label_min"`
	LabelMax  float64 `json:"label_max"`
	LabelMean float64 `json:"label_mean"`

	SourceFormat string    `json:"source_format"`
	CreatedAt    time.Time `json:"created_at"`
}

// TaskValue returns the manifest's task as a dataset constant.
func (m *Manifest) TaskValue() (dataset.Task, error) { return dataset.ParseTask(m.Task) }

// Density returns NNZ / (Rows·Dim), the fraction of stored entries.
func (m *Manifest) Density() float64 {
	if m.Rows == 0 || m.Dim == 0 {
		return 0
	}
	return float64(m.NNZ) / (float64(m.Rows) * float64(m.Dim))
}

func (m *Manifest) validate() error {
	if m.FormatVersion != FormatVersion {
		return fmt.Errorf("store: manifest format version %d, this build reads %d", m.FormatVersion, FormatVersion)
	}
	if m.Rows <= 0 || m.Dim <= 0 {
		return fmt.Errorf("store: manifest has %d rows × %d dim", m.Rows, m.Dim)
	}
	if _, err := m.TaskValue(); err != nil {
		return err
	}
	if want := int64(m.Rows) * 8; m.IndexBytes != want {
		return fmt.Errorf("store: manifest index_bytes %d, want %d for %d rows", m.IndexBytes, want, m.Rows)
	}
	return nil
}

const manifestName = "manifest.json"

func writeManifest(dir string, m *Manifest) error {
	tmp, err := os.CreateTemp(dir, "manifest.tmp-*")
	if err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// encodeRow appends the record for one row to buf and returns the extended
// slice. Dense records carry exactly dim values; sparse records carry the
// (index, value) pairs.
func encodeRow(buf []byte, sparse bool, row dataset.RowData) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(row.Label))
	if !sparse {
		for _, v := range row.Val {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return buf
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(row.Idx)))
	for _, i := range row.Idx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
	}
	for _, v := range row.Val {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// sparseRecNNZ returns the stored-entry count of a sparse record from its
// byte length alone: label (8) + count (4) + nnz × (4 + 8). Knowing nnz
// before touching the payload is what lets Materialize size one contiguous
// CSR block from the index spans and decode every record straight into it.
func sparseRecNNZ(recLen int64) (int, error) {
	payload := recLen - 12
	if payload < 0 || payload%12 != 0 {
		return 0, fmt.Errorf("store: sparse record length %d is not 12+12·nnz", recLen)
	}
	return int(payload / 12), nil
}

// decodeSparseInto parses one sparse record into caller-provided index and
// value slices (len(idx) == len(val) == the record's nnz) and returns the
// label. It is decodeRow's allocation-free core: CSR materialization points
// idx/val at sub-slices of one shared block.
func decodeSparseInto(rec []byte, dim int, idx []int32, val []float64) (float64, error) {
	if len(rec) < 12 {
		return 0, fmt.Errorf("store: sparse record truncated (%d bytes)", len(rec))
	}
	label := math.Float64frombits(binary.LittleEndian.Uint64(rec))
	rec = rec[8:]
	nnz := int(binary.LittleEndian.Uint32(rec))
	rec = rec[4:]
	if nnz != len(idx) || len(rec) != 12*nnz {
		return 0, fmt.Errorf("store: sparse record has %d payload bytes, want %d for nnz=%d", len(rec), 12*nnz, nnz)
	}
	prev := int32(-1)
	for i := range idx {
		j := int32(binary.LittleEndian.Uint32(rec[4*i:]))
		if j <= prev || int(j) >= dim {
			return 0, fmt.Errorf("store: corrupt sparse record: index %d at position %d (prev %d, dim %d)", j, i, prev, dim)
		}
		idx[i] = j
		prev = j
	}
	rec = rec[4*nnz:]
	for i := range val {
		val[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:]))
	}
	return label, nil
}

// decodeDenseInto parses one dense record into out (len(out) == dim) and
// returns the label, so Materialize decodes a sample straight into its
// contiguous block.
func decodeDenseInto(rec []byte, out []float64) (float64, error) {
	if len(rec) < 8 {
		return 0, fmt.Errorf("store: row record truncated (%d bytes)", len(rec))
	}
	if len(rec)-8 != 8*len(out) {
		return 0, fmt.Errorf("store: dense record has %d value bytes, want %d", len(rec)-8, 8*len(out))
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*i:]))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(rec)), nil
}

// decodeRow parses one record. dim is the ambient dimension from the
// manifest.
func decodeRow(rec []byte, sparse bool, dim int) (dataset.Row, float64, error) {
	if !sparse {
		vals := make([]float64, dim)
		label, err := decodeDenseInto(rec, vals)
		if err != nil {
			return nil, 0, err
		}
		return dataset.DenseRow(vals), label, nil
	}
	if len(rec) < 8 {
		return nil, 0, fmt.Errorf("store: row record truncated (%d bytes)", len(rec))
	}
	label := math.Float64frombits(binary.LittleEndian.Uint64(rec))
	rec = rec[8:]
	if len(rec) < 4 {
		return nil, 0, fmt.Errorf("store: sparse record truncated (%d bytes)", len(rec))
	}
	nnz := int(binary.LittleEndian.Uint32(rec))
	rec = rec[4:]
	if len(rec) != 12*nnz {
		return nil, 0, fmt.Errorf("store: sparse record has %d payload bytes, want %d for nnz=%d", len(rec), 12*nnz, nnz)
	}
	idx := make([]int32, nnz)
	for i := range idx {
		idx[i] = int32(binary.LittleEndian.Uint32(rec[4*i:]))
	}
	vals := make([]float64, nnz)
	rec = rec[4*nnz:]
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:]))
	}
	sp, err := dataset.NewSparseRow(dim, idx, vals)
	if err != nil {
		return nil, 0, fmt.Errorf("store: corrupt sparse record: %w", err)
	}
	return sp, label, nil
}
