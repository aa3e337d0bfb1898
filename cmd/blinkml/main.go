// Command blinkml trains an approximate model with an accuracy contract on
// one of the synthetic paper workloads and prints the contract, the chosen
// sample size, and the realized difference against a fully trained model —
// the Figure-1 interaction in CLI form.
//
// Usage:
//
//	blinkml -model logistic -data criteo -rows 20000 -dim 500 -accuracy 0.95 -delta 0.05
//
// With -json the result is emitted as a single machine-readable JSON
// document using the same response structs blinkml-serve returns.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"blinkml"
	"blinkml/internal/cluster"
	"blinkml/internal/compute"
	"blinkml/internal/datagen"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/serve"
)

func main() {
	var (
		modelName = flag.String("model", "logistic", "model class: linear | logistic | maxent | poisson | ppca")
		dataName  = flag.String("data", "criteo", "synthetic dataset: gas | power | criteo | higgs | mnist | yelp | counts")
		storeDir  = flag.String("store", "", "dataset store directory (enables -dataset)")
		datasetID = flag.String("dataset", "", "train against a stored dataset id instead of -data (out of core: only sampled rows are read)")
		rows      = flag.Int("rows", 20000, "synthetic rows (0 = dataset default)")
		dim       = flag.Int("dim", 0, "feature dimension (0 = dataset default)")
		accuracy  = flag.Float64("accuracy", 0.95, "requested accuracy (1-ε)")
		delta     = flag.Float64("delta", 0.05, "allowed violation probability δ")
		reg       = flag.Float64("reg", 0.001, "L2 regularization coefficient")
		classes   = flag.Int("classes", 10, "classes for maxent")
		factors   = flag.Int("factors", 4, "factors for ppca")
		n0        = flag.Int("n0", 1000, "initial sample size")
		seed      = flag.Int64("seed", 1, "random seed")
		compare   = flag.Bool("compare-full", true, "also train the full model and report the realized difference")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON (blinkml-serve response structs)")
		par       = flag.Int("parallelism", 0, "compute-pool degree for all training kernels (0 = GOMAXPROCS)")
	)
	flag.Parse()
	compute.SetParallelism(*par)
	if err := run(*modelName, *dataName, *storeDir, *datasetID, *rows, *dim, *accuracy, *delta, *reg, *classes, *factors, *n0, *seed, *compare, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "blinkml:", err)
		os.Exit(1)
	}
}

func run(modelName, dataName, storeDir, datasetID string, rows, dim int, accuracy, delta, reg float64, classes, factors, n0 int, seed int64, compare, jsonOut bool) error {
	spec, err := models.New(strings.ToLower(modelName), reg, classes, factors)
	if err != nil {
		return err
	}

	// A stored dataset id (rows read on demand) when given, a synthetic
	// workload otherwise.
	ref := cluster.DatasetRef{ID: datasetID}
	if ref.ID == "" {
		ref.Synthetic = &datagen.Ref{Name: dataName, Rows: rows, Dim: dim, Seed: seed}
	}
	src, err := ref.Open(context.Background(), cluster.StoreAt(storeDir))
	if err != nil {
		return err
	}
	meta := src.Meta()
	cfg := blinkml.Config{
		Epsilon:           1 - accuracy,
		Delta:             delta,
		Seed:              seed,
		InitialSampleSize: n0,
	}
	if !jsonOut {
		fmt.Printf("dataset %s: %d rows, %d features\n", meta.Name, meta.Rows, meta.Dim)
		fmt.Printf("contract: accuracy >= %.4g%% with probability >= %.4g%%\n", 100*accuracy, 100*(1-delta))
	}

	// The run's scope meters the whole invocation (training and, with
	// -compare, the full-data train) so -json reports carry the same
	// resource attribution as server jobs. Bound to this goroutine so the
	// context-free kernel and store layers can charge it.
	ctx, sc := obs.Begin(context.Background(), "", "", nil)
	defer sc.Bind()()

	model, err := blinkml.TrainSource(ctx, spec, src, cfg)
	if err != nil {
		return err
	}
	d := model.Diag

	// In text mode the approximate results print before the (slow) full
	// comparison train — the whole point is that the user sees them early.
	if !jsonOut {
		fmt.Printf("\napproximate model (%s):\n", spec.Name())
		fmt.Printf("  sample size        %d of %d (%.2f%%)\n", model.SampleSize, model.PoolSize, 100*float64(model.SampleSize)/float64(model.PoolSize))
		fmt.Printf("  estimated epsilon  %.5f\n", model.EstimatedEpsilon)
		fmt.Printf("  initial model used %v\n", model.UsedInitialModel)
		fmt.Printf("  phases             init %v | stats %v | search %v | final %v\n",
			d.InitialTrain.Round(1e6), d.Statistics.Round(1e6), d.SampleSearch.Round(1e6), d.FinalTrain.Round(1e6))
		fmt.Printf("  total              %v\n", d.Total().Round(1e6))
	}

	var full *serve.FullComparison
	if compare {
		// The comparison trains on the entire pool — the one step that
		// materializes all N rows, store-backed or not.
		env, err := blinkml.NewEnvFromSource(src, cfg)
		if err != nil {
			return err
		}
		fullRes, err := env.TrainFull(spec, cfg.Optimizer)
		if err != nil {
			return err
		}
		fullModel := &blinkml.Model{Spec: spec, Theta: fullRes.Theta}
		v := model.Diff(fullModel, env.Holdout())
		full = &serve.FullComparison{RealizedDiff: v, ContractMet: v <= cfg.Epsilon}
	}

	if jsonOut {
		info, err := serve.NewModelInfo("", model)
		if err != nil {
			return err
		}
		report := serve.RunReport{
			Dataset:   serve.DatasetInfo{Name: meta.Name, Rows: meta.Rows, Dim: meta.Dim},
			Contract:  serve.Contract{Epsilon: cfg.Epsilon, Delta: delta},
			Model:     info,
			Phases:    serve.NewPhaseBreakdown(d),
			Full:      full,
			Resources: sc.Ledger.Snapshot(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}

	if full != nil {
		fmt.Printf("\nfull model (for comparison):\n")
		fmt.Printf("  realized difference v = %.5f (contract ε = %.5f) — %s\n",
			full.RealizedDiff, cfg.Epsilon, verdict(full.ContractMet))
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "contract met"
	}
	return "CONTRACT MISSED"
}
