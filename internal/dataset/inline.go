package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Inline is a small dataset shipped inside a payload — a serving-layer
// request body or a cluster task — either dense (row-major x) or sparse
// (per-row indices/values over an ambient dim); exactly one of the two
// shapes must be present. Sparse payloads at or below the density threshold
// train on the sparse kernels; denser ones auto-fall back to dense rows,
// with bit-identical results either way. It is the small-data path: every
// trial task of a cluster search carries the rows, so anything beyond a few
// thousand rows belongs in the dataset store, where tasks carry only an id.
type Inline struct {
	// Task is "regression", "binary", "multiclass", or "unsupervised".
	Task string `json:"task"`
	// X holds dense rows.
	X [][]float64 `json:"x,omitempty"`
	// Dim is the ambient dimension for sparse rows (0 = infer from the
	// largest index). Indices[i] are strictly increasing 0-based feature
	// ids; Values[i] the matching entries.
	Dim     int         `json:"dim,omitempty"`
	Indices [][]int32   `json:"indices,omitempty"`
	Values  [][]float64 `json:"values,omitempty"`
	// Y holds one label a row, each finite: required for a supervised
	// task, kept with the rows (or left empty) for an unsupervised one.
	Y []float64 `json:"y,omitempty"`
	// Classes is K for multiclass (0 = infer from the labels).
	Classes int `json:"classes,omitempty"`
}

// Validate checks the payload's shape at admission (Build checks the
// contents).
func (d *Inline) Validate() error {
	if len(d.X) == 0 && len(d.Indices) == 0 {
		return errors.New("dataset: inline dataset has no rows (set x, or indices+values)")
	}
	if len(d.X) > 0 && len(d.Indices) > 0 {
		return errors.New("dataset: inline dataset must be dense (x) or sparse (indices+values), not both")
	}
	if len(d.Indices) > 0 && len(d.Values) != len(d.Indices) {
		return fmt.Errorf("dataset: inline dataset has %d index rows but %d value rows", len(d.Indices), len(d.Values))
	}
	_, err := ParseTask(d.Task)
	return err
}

// Rows returns the number of rows in either shape.
func (d *Inline) Rows() int { return len(d.X) + len(d.Indices) }

// Build materializes the payload as a Dataset (sparse payloads pack into a
// CSR block, with the standard density-threshold dense fallback).
func (d *Inline) Build() (*Dataset, error) {
	task, err := ParseTask(d.Task)
	if err != nil {
		return nil, err
	}
	if len(d.Indices) > 0 {
		return FromSparse(task, d.Dim, d.Indices, d.Values, d.Y, d.Classes)
	}
	return FromDense(task, d.X, d.Y, d.Classes)
}

// ContentHash folds every value, label, row boundary, and the class count
// into an FNV-1a hash — the payload's content identity: payloads with equal
// shapes but different values must never share a cached environment. Sparse
// payloads additionally fold the ambient dim and every stored index, so two
// sparse datasets with the same values at different coordinates hash apart.
func (d *Inline) ContentHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	word(uint64(d.Classes))
	for _, row := range d.X {
		word(uint64(len(row)))
		for _, v := range row {
			word(math.Float64bits(v))
		}
	}
	word(uint64(d.Dim))
	for i, idx := range d.Indices {
		word(uint64(len(idx)))
		for _, j := range idx {
			word(uint64(uint32(j)))
		}
		if i < len(d.Values) {
			for _, v := range d.Values[i] {
				word(math.Float64bits(v))
			}
		}
	}
	word(uint64(len(d.Y)))
	for _, v := range d.Y {
		word(math.Float64bits(v))
	}
	return h.Sum64()
}
