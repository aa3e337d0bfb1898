package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestWorkloadRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("expected the paper's 8 combinations, got %d", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.ID] {
			t.Fatalf("duplicate workload %q", w.ID)
		}
		seen[w.ID] = true
		ds := w.Data(Small, 1)
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: invalid dataset: %v", w.ID, err)
		}
		if len(w.Accuracies) == 0 {
			t.Fatalf("%s: no accuracy axis", w.ID)
		}
	}
	if _, err := WorkloadByID("lr-criteo"); err != nil {
		t.Fatal(err)
	}
	if _, err := WorkloadByID("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []Scale{Small, Medium, Large} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip failed for %v", s)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"## T", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// shortAccuracies trims a workload's accuracy axis so smoke tests stay fast.
func shortWorkload(t *testing.T, id string, accs []float64) Workload {
	t.Helper()
	w, err := WorkloadByID(id)
	if err != nil {
		t.Fatal(err)
	}
	w.Accuracies = accs
	return w
}

func TestRunFig5Smoke(t *testing.T) {
	w := shortWorkload(t, "lr-higgs", []float64{0.80, 0.95})
	tab, err := RunFig5(w, Small, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d want 2", len(tab.Rows))
	}
	if len(tab.Columns) != len(tab.Rows[0]) {
		t.Fatal("column/row arity mismatch")
	}
}

func TestRunFig6GuaranteeHolds(t *testing.T) {
	w := shortWorkload(t, "lr-higgs", []float64{0.90, 0.95})
	tab, err := RunFig6(w, Small, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("guarantee violated in row %v", row)
		}
	}
}

func TestRunFig7Smoke(t *testing.T) {
	w, err := WorkloadByID("lin-power")
	if err != nil {
		t.Fatal(err)
	}
	eff, effc, err := RunFig7(w, Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Rows) != len(fig7Accuracies) || len(effc.Rows) != len(fig7Accuracies) {
		t.Fatalf("row counts %d/%d want %d", len(eff.Rows), len(effc.Rows), len(fig7Accuracies))
	}
}

func TestRunFig8Smoke(t *testing.T) {
	overhead, genErr, iters, err := RunFig8(Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(fig8Dims(Small))
	if len(overhead.Rows) != wantRows || len(genErr.Rows) != wantRows || len(iters.Rows) != wantRows {
		t.Fatal("dimension sweep incomplete")
	}
	// Lemma 1's bound must hold in every row.
	for _, row := range genErr.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("generalization bound violated: %v", row)
		}
	}
}

func TestRunFig9aRatiosSane(t *testing.T) {
	tab, err := RunFig9a(Small, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Ratios should be within a loose [0.3, 3] band (near 1, possibly
	// conservative), tightest at the largest sample size.
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("unparseable ratio %q", cell)
			}
			if v < 0.3 || v > 3 {
				t.Errorf("variance ratio %v far from 1 (row %v)", v, row)
			}
		}
	}
}

func TestRunFig9bObservedFisherCheaperAtHighDim(t *testing.T) {
	tab, err := RunFig9b(Small, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// On the high-dimensional combo (row 1), OF must not be slower than IG:
	// that asymmetry is the point of the figure.
	igT := parseSecs(t, tab.Rows[1][2])
	ofT := parseSecs(t, tab.Rows[1][3])
	if ofT > igT {
		t.Errorf("ObservedFisher (%v) slower than InverseGradients (%v) at high dim", ofT, igT)
	}
}

func parseSecs(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if err != nil {
		t.Fatalf("unparseable seconds %q", s)
	}
	return v
}

func TestRunFig10Smoke(t *testing.T) {
	tab, err := RunFig10(Small, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows=%d want 3", len(tab.Rows))
	}
	// Cumulative BlinkML time must be below cumulative full time by the end.
	last := tab.Rows[len(tab.Rows)-1]
	if parseSecs(t, last[3]) >= parseSecs(t, last[5]) {
		t.Errorf("BlinkML (%s) not faster than full training (%s) over the search", last[3], last[5])
	}
}

func TestRunFig11aRegularizationShrinksSample(t *testing.T) {
	tab, err := RunFig11a(Small, 8)
	if err != nil {
		t.Fatal(err)
	}
	first := parseInt(t, tab.Rows[0][1])                 // β = 0
	lastRow := parseInt(t, tab.Rows[len(tab.Rows)-1][1]) // β = 10
	if lastRow > first {
		t.Errorf("estimated n grew with regularization: %d (β=0) → %d (β=10)", first, lastRow)
	}
}

func TestRunFig11bParamsGrowSample(t *testing.T) {
	tab, err := RunFig11b(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	first := parseInt(t, tab.Rows[0][1])
	last := parseInt(t, tab.Rows[len(tab.Rows)-1][1])
	if last < first {
		t.Errorf("estimated n shrank as parameters grew: %d → %d", first, last)
	}
}

func parseInt(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("unparseable int %q", s)
	}
	return v
}

func TestRunnersRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range Runners() {
		if ids[r.ID] {
			t.Fatalf("duplicate runner %q", r.ID)
		}
		ids[r.ID] = true
	}
	// 8 fig5 panels + 8 fig6 panels + 2 fig7 + fig8 + fig9a + fig9b + fig10
	// + fig11a + fig11b = 24.
	if len(ids) != 24 {
		t.Fatalf("runner count %d want 24", len(ids))
	}
	if _, err := RunnerByID("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunnerByID("nope"); err == nil {
		t.Fatal("unknown runner accepted")
	}
}
