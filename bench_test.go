// Benchmarks regenerating every table and figure of the paper's evaluation
// (one target per panel; `go run ./cmd/blinkml-bench -list` prints the
// index of experiment ids, each naming its figure in the paper's §5). Each
// iteration runs the corresponding experiment at Small scale and reports
// the tables through b.Log, so `go test -bench=. -benchmem` both times the
// harness and emits the reproduced numbers.
package blinkml_test

import (
	"testing"

	"blinkml/internal/experiments"
)

const benchSeed = 1

func benchWorkload(b *testing.B, id string, accs []float64) experiments.Workload {
	b.Helper()
	w, err := experiments.WorkloadByID(id)
	if err != nil {
		b.Fatal(err)
	}
	if accs != nil {
		w.Accuracies = accs
	}
	return w
}

// fig5Bench runs one Figure 5 / Table 4 panel.
func fig5Bench(b *testing.B, id string) {
	w := benchWorkload(b, id, nil)
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig5(w, experiments.Small, 2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig5SpeedupLinGas(b *testing.B)    { fig5Bench(b, "lin-gas") }
func BenchmarkFig5SpeedupLinPower(b *testing.B)  { fig5Bench(b, "lin-power") }
func BenchmarkFig5SpeedupLRCriteo(b *testing.B)  { fig5Bench(b, "lr-criteo") }
func BenchmarkFig5SpeedupLRHiggs(b *testing.B)   { fig5Bench(b, "lr-higgs") }
func BenchmarkFig5SpeedupMEMnist(b *testing.B)   { fig5Bench(b, "me-mnist") }
func BenchmarkFig5SpeedupMEYelp(b *testing.B)    { fig5Bench(b, "me-yelp") }
func BenchmarkFig5SpeedupPPCAMnist(b *testing.B) { fig5Bench(b, "ppca-mnist") }
func BenchmarkFig5SpeedupPPCAHiggs(b *testing.B) { fig5Bench(b, "ppca-higgs") }

// fig6Bench runs one Figure 6 / Table 5 panel.
func fig6Bench(b *testing.B, id string) {
	w := benchWorkload(b, id, nil)
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig6(w, experiments.Small, 5, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig6GuaranteeLinGas(b *testing.B)    { fig6Bench(b, "lin-gas") }
func BenchmarkFig6GuaranteeLinPower(b *testing.B)  { fig6Bench(b, "lin-power") }
func BenchmarkFig6GuaranteeLRCriteo(b *testing.B)  { fig6Bench(b, "lr-criteo") }
func BenchmarkFig6GuaranteeLRHiggs(b *testing.B)   { fig6Bench(b, "lr-higgs") }
func BenchmarkFig6GuaranteeMEMnist(b *testing.B)   { fig6Bench(b, "me-mnist") }
func BenchmarkFig6GuaranteeMEYelp(b *testing.B)    { fig6Bench(b, "me-yelp") }
func BenchmarkFig6GuaranteePPCAMnist(b *testing.B) { fig6Bench(b, "ppca-mnist") }
func BenchmarkFig6GuaranteePPCAHiggs(b *testing.B) { fig6Bench(b, "ppca-higgs") }

// fig7Bench runs Figure 7 / Tables 6–7 for one workload.
func fig7Bench(b *testing.B, id string) {
	w := benchWorkload(b, id, nil)
	for i := 0; i < b.N; i++ {
		eff, effc, err := experiments.RunFig7(w, experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + eff.String() + "\n" + effc.String())
		}
	}
}

func BenchmarkFig7StrategiesLinPower(b *testing.B) { fig7Bench(b, "lin-power") }
func BenchmarkFig7StrategiesLRCriteo(b *testing.B) { fig7Bench(b, "lr-criteo") }

func BenchmarkFig8DimensionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		overhead, genErr, iters, err := experiments.RunFig8(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + overhead.String() + "\n" + genErr.String() + "\n" + iters.String())
		}
	}
}

func BenchmarkFig9aVarianceTightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig9a(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig9bStatsMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig9b(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig10Hyperparam(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig10(experiments.Small, benchSeed, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig11aRegularization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig11a(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig11bNumParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig11b(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}
