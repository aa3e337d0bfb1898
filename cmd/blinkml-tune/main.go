// Command blinkml-tune runs a hyperparameter search with approximate
// models: every candidate trains under the same (ε, δ) contract on one
// shared data split, optionally with successive-halving early pruning, and
// the ranked leaderboard plus the winning configuration are printed (or
// emitted as JSON with -json).
//
// Usage:
//
//	blinkml-tune -data higgs -rows 40000 -model logistic -candidates 20 -halving
//	blinkml-tune -data higgs -grid 1e-5,1e-4,1e-3,1e-2 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"blinkml"
	"blinkml/internal/cluster"
	"blinkml/internal/compute"
	"blinkml/internal/datagen"
	"blinkml/internal/models"
)

func main() {
	var (
		modelName  = flag.String("model", "logistic", "model family: linear | logistic | maxent | poisson | ppca")
		dataName   = flag.String("data", "higgs", "synthetic dataset: gas | power | criteo | higgs | mnist | yelp | counts")
		storeDir   = flag.String("store", "", "dataset store directory (enables -dataset)")
		datasetID  = flag.String("dataset", "", "search over a stored dataset id instead of -data (out of core)")
		rows       = flag.Int("rows", 40000, "synthetic rows (0 = dataset default)")
		dim        = flag.Int("dim", 0, "feature dimension (0 = dataset default)")
		accuracy   = flag.Float64("accuracy", 0.95, "requested accuracy (1-ε) per candidate")
		delta      = flag.Float64("delta", 0.05, "allowed violation probability δ")
		grid       = flag.String("grid", "", "comma-separated explicit grid: regularization for GLMs (e.g. 1e-4,1e-3), factor counts for ppca")
		candidates = flag.Int("candidates", 12, "random candidates to draw (0 disables random search; defaults to 0 when -grid is given)")
		regMin     = flag.Float64("reg-min", 1e-6, "log-uniform regularization range lower bound")
		regMax     = flag.Float64("reg-max", 1, "log-uniform regularization range upper bound")
		classes    = flag.Int("classes", 10, "classes for maxent")
		halving    = flag.Bool("halving", false, "enable successive-halving early pruning")
		rungs      = flag.Int("rungs", 3, "successive-halving pruning rounds")
		eta        = flag.Int("eta", 2, "successive-halving rate (keep 1/eta per rung)")
		workers    = flag.Int("workers", 0, "concurrent candidate trainings (0 = auto)")
		n0         = flag.Int("n0", 1000, "initial sample size per candidate")
		seed       = flag.Int64("seed", 1, "random seed")
		jsonOut    = flag.Bool("json", false, "emit the leaderboard as JSON (the tune object of a served tune job)")
		par        = flag.Int("parallelism", 0, "compute-pool degree for all training kernels (0 = GOMAXPROCS)")
	)
	flag.Parse()
	compute.SetParallelism(*par)

	// An explicit -grid means "search exactly these": random draws are only
	// added on top when the user also passed -candidates themselves.
	if *grid != "" {
		candidatesSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "candidates" {
				candidatesSet = true
			}
		})
		if !candidatesSet {
			*candidates = 0
		}
	}

	// Ctrl-C cancels the search cleanly: queued candidates never start and
	// running ones stop between optimizer iterations.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, config{
		model: *modelName, data: *dataName, storeDir: *storeDir, datasetID: *datasetID, rows: *rows, dim: *dim,
		epsilon: 1 - *accuracy, delta: *delta,
		grid: *grid, candidates: *candidates, regMin: *regMin, regMax: *regMax,
		classes: *classes, halving: *halving, rungs: *rungs, eta: *eta,
		workers: *workers, n0: *n0, seed: *seed, jsonOut: *jsonOut,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "blinkml-tune:", err)
		os.Exit(1)
	}
}

type config struct {
	model, data             string
	storeDir, datasetID     string
	rows, dim               int
	epsilon, delta          float64
	grid                    string
	candidates              int
	regMin, regMax          float64
	classes                 int
	halving                 bool
	rungs, eta, workers, n0 int
	seed                    int64
	jsonOut                 bool
}

func run(ctx context.Context, c config) error {
	space, err := buildSpace(c)
	if err != nil {
		return err
	}
	ref := cluster.DatasetRef{ID: c.datasetID}
	if ref.ID == "" {
		ref.Synthetic = &datagen.Ref{Name: c.data, Rows: c.rows, Dim: c.dim, Seed: c.seed}
	}
	src, err := ref.Open(ctx, cluster.StoreAt(c.storeDir))
	if err != nil {
		return err
	}
	meta := src.Meta()
	cfg := blinkml.TuneConfig{
		Train: blinkml.Config{
			Epsilon:           c.epsilon,
			Delta:             c.delta,
			Seed:              c.seed,
			InitialSampleSize: c.n0,
			TestFraction:      0.15,
		},
		Workers: c.workers,
		Halving: c.halving,
		Rungs:   c.rungs,
		Eta:     c.eta,
		Seed:    c.seed,
	}
	if !c.jsonOut {
		fmt.Printf("dataset %s: %d rows, %d features\n", meta.Name, meta.Rows, meta.Dim)
		fmt.Printf("contract per candidate: accuracy >= %.4g%% with probability >= %.4g%%\n",
			100*(1-c.epsilon), 100*(1-c.delta))
	}
	res, err := blinkml.Tune(ctx, space, src, cfg)
	if err != nil {
		return err
	}
	if c.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	printLeaderboard(res)
	return nil
}

func buildSpace(c config) (blinkml.TuneSpace, error) {
	var space blinkml.TuneSpace
	if c.grid != "" {
		for _, f := range strings.Split(c.grid, ",") {
			reg, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return space, fmt.Errorf("bad -grid entry %q: %w", f, err)
			}
			spec, err := specFor(c.model, reg, c.classes)
			if err != nil {
				return space, err
			}
			space.Grid = append(space.Grid, spec)
		}
	}
	if c.candidates > 0 {
		space.Random = &blinkml.TuneRandomSpace{
			Model:   c.model,
			N:       c.candidates,
			RegMin:  c.regMin,
			RegMax:  c.regMax,
			Classes: c.classes,
		}
	}
	return space, nil
}

// specFor builds one -grid candidate: the entry is β for the GLM families
// (0 means unregularized) and the factor count for ppca.
func specFor(model string, entry float64, classes int) (blinkml.ModelSpec, error) {
	model = strings.ToLower(model)
	factors := int(entry)
	if model == "ppca" && (float64(factors) != entry || factors < 1) {
		return nil, fmt.Errorf("ppca -grid entries are factor counts (positive integers), got %v", entry)
	}
	return models.New(model, entry, classes, factors)
}

func printLeaderboard(res *blinkml.TuneResult) {
	fmt.Printf("\nsearch: %d candidates, %d pruned, pool %d rows, %v total\n\n",
		res.Evaluated, res.Pruned, res.PoolSize, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("%-5s %-10s %-12s %-11s %-10s %-8s %-10s %s\n",
		"rank", "model", "params", "test err", "est ε", "rung", "n", "time")
	for _, e := range res.Leaderboard {
		testErr := "-"
		if !math.IsNaN(e.TestError) {
			testErr = fmt.Sprintf("%.4f", e.TestError)
		}
		eps := "-"
		if e.EstimatedEpsilon > 0 {
			eps = fmt.Sprintf("%.4f", e.EstimatedEpsilon)
		}
		status := ""
		if e.Pruned {
			status = " (pruned)"
		}
		if e.Err != "" {
			status = " (failed: " + e.Err + ")"
		}
		fmt.Printf("%-5d %-10s %-12s %-11s %-10s %-8d %-10d %v%s\n",
			e.Rank, e.Spec.Name(), specParams(e.Spec), testErr, eps, e.Rung,
			e.SampleSize, e.Wall.Round(time.Millisecond), status)
	}
	best := res.Best
	fmt.Printf("\nwinner: %s %s — sample %d of %d, estimated ε %.4f\n",
		best.Spec.Name(), specParams(best.Spec), best.SampleSize, best.PoolSize, best.EstimatedEpsilon)
	fmt.Println("the winner carries the per-candidate (ε, δ) fidelity contract, so its")
	fmt.Println("ranking transfers to full training with high probability.")
}

// specParams renders the searched knob of a spec compactly.
func specParams(s blinkml.ModelSpec) string {
	type regged interface{ Beta() float64 }
	if r, ok := s.(regged); ok && r.Beta() > 0 {
		return fmt.Sprintf("reg=%.2e", r.Beta())
	}
	return ""
}
