package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blinkml/internal/dataset"
)

// fits reports whether m is a manifest some ingest could have written: a
// shape whose byte counts are the ones its records and index take, worked
// out without overflow.
func fits(m *Manifest) bool {
	task, err := m.TaskValue()
	if err != nil || m.FormatVersion != FormatVersion || m.Rows <= 0 || m.Dim <= 0 {
		return false
	}
	if task == dataset.MultiClassification && (m.NumClasses < 1 || m.NumClasses > dataset.MaxClasses) {
		return false
	}
	rows, dim, nnz := big.NewInt(int64(m.Rows)), big.NewInt(int64(m.Dim)), big.NewInt(m.NNZ)
	mul := func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }
	add := func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }
	if mul(big.NewInt(8), rows).Cmp(big.NewInt(m.IndexBytes)) != 0 {
		return false
	}
	if m.Sparse {
		return m.NNZ >= 0 && mul(big.NewInt(12), add(rows, nnz)).Cmp(big.NewInt(m.RowBytes)) == 0
	}
	return mul(rows, dim).Cmp(nnz) == 0 &&
		mul(mul(big.NewInt(8), rows), add(dim, big.NewInt(1))).Cmp(big.NewInt(m.RowBytes)) == 0
}

// ingested returns the manifests of a dense, a sparse and a multiclass
// ingest.
func ingested(t *testing.T) map[string]Manifest {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Manifest{}
	for name, in := range map[string]struct {
		format, body string
		task         dataset.Task
	}{
		"dense":      {"csv", csvInput, dataset.BinaryClassification},
		"sparse":     {"libsvm", "1 1:0.5 3:2\n0 2:1\n1 1:-3 40:0.25\n", dataset.Regression},
		"multiclass": {"csv", "1,2,0\n3,4,2\n", dataset.MultiClassification},
	} {
		h, err := st.Ingest(strings.NewReader(in.body), IngestOptions{Format: in.format, Task: in.task})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = h.Manifest()
	}
	return out
}

// TestManifestMustFitItsSizes: every ingest writes a manifest whose shape
// fits its byte counts, and one that does not — torn, or hostile with a
// huge dim that would size a sample's block — is refused on disk and in a
// bundle, so no handle is ever opened on it.
func TestManifestMustFitItsSizes(t *testing.T) {
	good := ingested(t)
	for name, m := range good {
		if err := m.validate(); err != nil || !fits(&m) {
			t.Fatalf("%s ingest wrote %+v (validate: %v)", name, m, err)
		}
	}
	cases := []struct {
		name, base string
		edit       func(m *Manifest)
		want       string
	}{
		{"dense-huge-dim", "dense", func(m *Manifest) { m.Dim = 1 << 30 }, "row_bytes 160, want 8·rows·(dim+1)"},
		{"dense-max-dim", "dense", func(m *Manifest) { m.Dim = math.MaxInt }, "want 8·rows·(dim+1)"},
		{"dense-dim-off-by-one", "dense", func(m *Manifest) { m.Dim = 4 }, "want 8·rows·(dim+1)"},
		{"dense-torn-rows", "dense", func(m *Manifest) { m.RowBytes -= 32 }, "want 8·rows·(dim+1)"},
		{"dense-nnz", "dense", func(m *Manifest) { m.NNZ = 14 }, "nnz 14, want rows·dim"},
		{"dense-negative-sizes", "dense", func(m *Manifest) { m.RowBytes, m.NNZ = -160, -15 }, "want 8·rows·(dim+1)"},
		{"sparse-nnz", "sparse", func(m *Manifest) { m.NNZ++ }, "want row_bytes = 12·(rows+nnz)"},
		{"sparse-negative-nnz", "sparse", func(m *Manifest) { m.RowBytes, m.NNZ = 12, -2 }, "want row_bytes = 12·(rows+nnz)"},
		{"sparse-torn-rows", "sparse", func(m *Manifest) { m.RowBytes -= 6 }, "want row_bytes = 12·(rows+nnz)"},
		{"sparse-read-as-dense", "sparse", func(m *Manifest) { m.Sparse = false }, "want 8·rows·(dim+1)"},
		{"multiclass-no-classes", "multiclass", func(m *Manifest) { m.NumClasses = 0 }, "0 classes for a multiclass task"},
		{"multiclass-negative-classes", "multiclass", func(m *Manifest) { m.NumClasses = -1 }, "-1 classes"},
		{"multiclass-past-max-classes", "multiclass", func(m *Manifest) { m.NumClasses = dataset.MaxClasses + 1 }, "65537 classes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := good[c.base]
			c.edit(&m)
			if fits(&m) {
				t.Fatalf("the edit left a manifest that fits: %+v", m)
			}
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, errs := readBoth(t, data)
			for via, err := range errs {
				if err == nil || !strings.HasPrefix(err.Error(), "store: ") || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: err = %v, want a store error containing %q", via, err, c.want)
				}
			}
		})
	}

	// A store opened over such a manifest leaves the dataset out.
	dir := t.TempDir()
	_, h := ingestCSV(t, dir)
	m := h.Manifest()
	m.Dim = 1 << 30
	if err := writeManifest(filepath.Join(dir, h.ID), &m); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(h.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get over a hostile manifest: err = %v, want ErrNotFound", err)
	}
}

// readBoth reads data as a manifest from disk and from a bundle header and
// returns what each accepted (nil where it refused) and each error.
func readBoth(t *testing.T, data []byte) (map[string]*Manifest, map[string]error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var bundle bytes.Buffer
	bundle.Write(bundleMagic[:])
	bundle.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(data))))
	bundle.Write(data)
	ms, errs := map[string]*Manifest{}, map[string]error{}
	ms["readManifest"], errs["readManifest"] = readManifest(dir)
	ms["ReadBundleManifest"], errs["ReadBundleManifest"] = ReadBundleManifest(&bundle)
	return ms, errs
}

// FuzzManifest feeds the manifest readers any bytes, from disk and in a
// bundle. Each must return a store error or a manifest whose shape fits its
// byte counts (dense: row_bytes = 8·rows·(dim+1) and nnz = rows·dim;
// sparse: row_bytes = 12·(rows+nnz); index_bytes = 8·rows; a multiclass
// task has a class), and never panic. The committed corpus holds ingested
// manifests and hostile ones: a dense dim of 2⁴⁰ over 160 row bytes, sizes
// whose products overflow int64, negative counts, a classless multiclass
// task.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, errs := readBoth(t, data)
		for via, err := range errs {
			if err != nil {
				if !strings.HasPrefix(err.Error(), "store: ") {
					t.Fatalf("%s: error without the store prefix: %v", via, err)
				}
				continue
			}
			if !fits(ms[via]) {
				t.Fatalf("%s accepted a manifest whose shape does not fit its sizes: %+v", via, ms[via])
			}
		}
	})
}
