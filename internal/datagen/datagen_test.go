package datagen

import (
	"math"
	"testing"
	"unsafe"

	"blinkml/internal/dataset"
)

func allGenerators() map[string]func(Config) *dataset.Dataset {
	return map[string]func(Config) *dataset.Dataset{
		"gas":    Gas,
		"power":  Power,
		"criteo": Criteo,
		"higgs":  Higgs,
		"mnist":  MNIST,
		"yelp":   Yelp,
		"counts": Counts,
	}
}

func TestGeneratorsProduceValidDatasets(t *testing.T) {
	for name, gen := range allGenerators() {
		t.Run(name, func(t *testing.T) {
			ds := gen(Config{Rows: 500, Seed: 1})
			if ds.Len() != 500 {
				t.Fatalf("rows=%d want 500", ds.Len())
			}
			if err := ds.Validate(); err != nil {
				t.Fatalf("invalid dataset: %v", err)
			}
			if ds.Name != name {
				t.Fatalf("name %q want %q", ds.Name, name)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for name, gen := range allGenerators() {
		t.Run(name, func(t *testing.T) {
			a := gen(Config{Rows: 100, Seed: 7})
			b := gen(Config{Rows: 100, Seed: 7})
			for i := 0; i < 100; i++ {
				if a.Task != dataset.Unsupervised && a.Y[i] != b.Y[i] {
					t.Fatalf("labels differ at %d", i)
				}
				av := make([]float64, a.Dim)
				bv := make([]float64, b.Dim)
				a.X[i].AddTo(av, 1)
				b.X[i].AddTo(bv, 1)
				for j := range av {
					if av[j] != bv[j] {
						t.Fatalf("row %d feature %d differs", i, j)
					}
				}
			}
			c := gen(Config{Rows: 100, Seed: 8})
			diff := false
			for i := 0; i < 100 && !diff; i++ {
				av := make([]float64, a.Dim)
				cv := make([]float64, c.Dim)
				a.X[i].AddTo(av, 1)
				c.X[i].AddTo(cv, 1)
				for j := range av {
					if av[j] != cv[j] {
						diff = true
						break
					}
				}
			}
			if !diff {
				t.Fatal("different seeds produced identical features")
			}
		})
	}
}

func TestSparseDatasetsAreSparse(t *testing.T) {
	for _, name := range []string{"criteo", "yelp"} {
		ds, err := Generate(name, Config{Rows: 200, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.Len(); i++ {
			sp, ok := ds.X[i].(*dataset.SparseRow)
			if !ok {
				t.Fatalf("%s row %d is not sparse", name, i)
			}
			if sp.NNZ() > ds.Dim/10 {
				t.Fatalf("%s row %d has %d nnz out of %d — not sparse", name, i, sp.NNZ(), ds.Dim)
			}
		}
	}
}

// The sparse generators append their rows to one dataset.CSR: row i+1's
// indices and values start where row i's end, in one array each.
func TestSparseGeneratorsFillOneBlock(t *testing.T) {
	for _, name := range []string{"criteo", "yelp", "onehot"} {
		ds, err := Generate(name, Config{Rows: 200, Dim: 3000, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < ds.Len(); i++ {
			prev, ok1 := ds.X[i-1].(*dataset.SparseRow)
			cur, ok2 := ds.X[i].(*dataset.SparseRow)
			if !ok1 || !ok2 {
				t.Fatalf("%s row %d or %d is not sparse", name, i-1, i)
			}
			idx := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev.Idx)), 4*len(prev.Idx))
			val := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev.Val)), 8*len(prev.Val))
			if unsafe.Pointer(unsafe.SliceData(cur.Idx)) != idx || unsafe.Pointer(unsafe.SliceData(cur.Val)) != val {
				t.Fatalf("%s row %d does not start where row %d ends", name, i, i-1)
			}
		}
	}
}

func TestCriteoPositiveRate(t *testing.T) {
	ds := Criteo(Config{Rows: 5000, Seed: 3})
	var pos float64
	for _, y := range ds.Y {
		pos += y
	}
	rate := pos / float64(ds.Len())
	if rate < 0.1 || rate > 0.5 {
		t.Fatalf("criteo positive rate %v outside CTR-like band", rate)
	}
}

func TestHiggsClassBalance(t *testing.T) {
	ds := Higgs(Config{Rows: 5000, Seed: 4})
	var pos float64
	for _, y := range ds.Y {
		pos += y
	}
	rate := pos / float64(ds.Len())
	if math.Abs(rate-0.53) > 0.05 {
		t.Fatalf("higgs signal rate %v want ≈ 0.53", rate)
	}
}

func TestMNISTPixelRangeAndClasses(t *testing.T) {
	ds := MNIST(Config{Rows: 1000, Dim: 64, Seed: 5})
	if ds.NumClasses != 10 {
		t.Fatalf("classes=%d", ds.NumClasses)
	}
	seen := map[float64]bool{}
	for i := 0; i < ds.Len(); i++ {
		seen[ds.Y[i]] = true
		ds.X[i].ForEach(func(_ int, v float64) {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v out of [0,1]", v)
			}
		})
	}
	if len(seen) != 10 {
		t.Fatalf("only %d classes appear", len(seen))
	}
}

func TestYelpClassesCovered(t *testing.T) {
	ds := Yelp(Config{Rows: 2000, Dim: 500, Seed: 6})
	counts := make([]int, 5)
	for _, y := range ds.Y {
		counts[int(y)]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d never generated", c)
		}
	}
}

func TestCountsNonNegativeIntegers(t *testing.T) {
	ds := Counts(Config{Rows: 1000, Seed: 7})
	for _, y := range ds.Y {
		if y < 0 || y != math.Trunc(y) {
			t.Fatalf("count label %v not a non-negative integer", y)
		}
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("nope", Config{}); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestGenerateDimOverride(t *testing.T) {
	ds, err := Generate("criteo", Config{Rows: 50, Dim: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 300 {
		t.Fatalf("dim=%d want 300", ds.Dim)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}
