package core

import (
	"sync"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/stat"
)

// TestSharedSampleNestingAndReuse checks the tune subsystem's sample-reuse
// contract: SharedSample(m) is a prefix of SharedSample(n) for m ≤ n, a size
// asked for again is served from the rows already held, the draw is
// deterministic in the env seed, and n clamps to the pool.
func TestSharedSampleNestingAndReuse(t *testing.T) {
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: 2000, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opt := Options{Epsilon: 0.1, Seed: 9}
	env := NewEnv(ds, opt)

	small := sharedSampleOf(t, env, 100)
	big := sharedSampleOf(t, env, 400)
	if small.Len() != 100 || big.Len() != 400 {
		t.Fatalf("sizes %d/%d, want 100/400", small.Len(), big.Len())
	}
	for i := 0; i < small.Len(); i++ {
		a := make([]float64, ds.Dim)
		b := make([]float64, ds.Dim)
		small.X[i].AddTo(a, 1)
		big.X[i].AddTo(b, 1)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d: samples are not nested", i)
			}
		}
		if small.Y[i] != big.Y[i] {
			t.Fatalf("row %d: labels are not nested", i)
		}
	}
	again := sharedSampleOf(t, env, 100)
	for i := range again.X {
		if &again.X[i].(dataset.DenseRow)[0] != &small.X[i].(dataset.DenseRow)[0] {
			t.Fatalf("row %d of a repeated size is not the row already held", i)
		}
	}
	if full := sharedSampleOf(t, env, env.PoolLen()+50); full != poolOf(t, env) {
		t.Fatal("oversized request should return the pool itself")
	}

	// Deterministic in the env seed.
	env2 := NewEnv(ds, opt)
	other := sharedSampleOf(t, env2, 100)
	for i := 0; i < 100; i++ {
		if small.Y[i] != other.Y[i] {
			t.Fatalf("row %d differs across identically seeded envs", i)
		}
	}
}

// TestSharedSampleConcurrent hammers the shared prefix from many goroutines
// (the halving worker pool's access pattern).
func TestSharedSampleConcurrent(t *testing.T) {
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: 3000, Dim: 5, Seed: 1})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	env := NewEnv(ds, Options{Epsilon: 0.1, Seed: 2})
	sizes := []int{50, 100, 200, 400, 800}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := sizes[(w+i)%len(sizes)]
				got, err := env.SharedSample(n)
				if err != nil {
					t.Errorf("shared sample %d: %v", n, err)
					return
				}
				if got.Len() != n {
					t.Errorf("size %d, want %d", got.Len(), n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHalvingRungsReadOnlyTheRowsBeyondThePrefix: the rungs of one search
// share one growing prefix of the pool permutation. On a store-backed
// environment rungs 300 → 600 → 1200 → 600 read 300, 300, 600 and 0 rows,
// each is exactly the first n rows of NewRNG(seed+0x5A3D).Perm(N) — the rows
// every earlier version of SharedSample drew — and what stays resident is one
// 1200-row prefix, not one sample per size.
func TestHalvingRungsReadOnlyTheRowsBeyondThePrefix(t *testing.T) {
	h, mem := storeBacked(t, 4000)
	opt := Options{Epsilon: 0.1, Seed: 23}
	env, err := NewEnvFromSource(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	perm := stat.NewRNG(opt.Seed + 0x5A3D).Perm(env.PoolLen())
	base := env.residentBytes()
	for _, step := range []struct{ n, reads int }{{300, 300}, {600, 300}, {1200, 600}, {600, 0}} {
		before := h.RowsMaterialized()
		got, err := env.SharedSample(step.n)
		if err != nil {
			t.Fatal(err)
		}
		if reads := h.RowsMaterialized() - before; reads != int64(step.reads) {
			t.Fatalf("rung %d read %d rows, want %d", step.n, reads, step.reads)
		}
		if got.Len() != step.n || len(got.Y) != step.n {
			t.Fatalf("rung %d has %d rows, %d labels", step.n, got.Len(), len(got.Y))
		}
		for i, rel := range perm[:step.n] {
			want := mem.X[env.poolIdx[rel]].(dataset.DenseRow)
			row := got.X[i].(dataset.DenseRow)
			for j := range want {
				if row[j] != want[j] {
					t.Fatalf("rung %d row %d feature %d: %v, want perm[%d]'s %v", step.n, i, j, row[j], i, want[j])
				}
			}
			if got.Y[i] != mem.Y[env.poolIdx[rel]] {
				t.Fatalf("rung %d row %d label differs from perm[%d]'s", step.n, i, i)
			}
		}
	}
	full, err := env.SharedSample(1200)
	if err != nil {
		t.Fatal(err)
	}
	// base was measured before the permutation existed: 8 bytes per pool row.
	if grew, want := env.residentBytes()-base, datasetBytes(full)+int64(env.PoolLen())*8; grew != want {
		t.Fatalf("resident bytes grew by %d over three rungs, want one 1200-row prefix and the permutation = %d", grew, want)
	}
}

// TestSharedSampleViewsSurviveGrowth: goroutines training on the 300-row
// rung keep reading their view while another caller extends the prefix to
// 1200 rows (run under -race: an extension must never write under a view),
// and the longer sample holds the view's very rows, not a second copy.
func TestSharedSampleViewsSurviveGrowth(t *testing.T) {
	h, _ := storeBacked(t, 3000)
	env, err := NewEnvFromSource(h, Options{Epsilon: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	small := sharedSampleOf(t, env, 300)
	sum := func() (s float64) {
		for i, r := range small.X {
			s += r.Dot(small.X[0].(dataset.DenseRow)) + small.Y[i]
		}
		return s
	}
	want := sum()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := sum(); got != want {
					t.Errorf("the 300-row view changed under its reader: %v, want %v", got, want)
					return
				}
			}
		}()
	}
	var big *dataset.Dataset
	for _, n := range []int{450, 600, 900, 1200} {
		if big = sharedSampleOf(t, env, n); big.Len() != n {
			t.Errorf("size %d, want %d", big.Len(), n)
		}
	}
	close(stop)
	readers.Wait()
	if small.Len() != 300 || cap(small.X) != 300 || cap(small.Y) != 300 {
		t.Fatalf("view is %d rows with capacity %d/%d, want 300 capped at 300", small.Len(), cap(small.X), cap(small.Y))
	}
	for i := range small.X {
		if &big.X[i].(dataset.DenseRow)[0] != &small.X[i].(dataset.DenseRow)[0] {
			t.Fatalf("row %d of the 1200-row sample is a second copy of the view's", i)
		}
	}
}
