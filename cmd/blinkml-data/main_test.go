package main

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blinkml/internal/store"
)

// A store ingested as unsupervised keeps the labels its file holds, and
// both ways out of it write them: sample of every row writes, in its own
// order, the lines export writes — labels included — in both formats.
func TestSampleWritesTheStoredLabelsLikeExport(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "in.csv")
	var text strings.Builder
	const rows = 40
	for i := range rows {
		text.WriteString(strconv.Itoa(i%7) + ",0.5," + strconv.Itoa(i) + "," + strconv.Itoa(i%3) + "\n")
	}
	if err := os.WriteFile(csv, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := filepath.Join(dir, "datasets")
	if err := cmdImport([]string{"-store", reg, "-format", "csv", "-task", "unsupervised", csv}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(reg)
	if err != nil {
		t.Fatal(err)
	}
	ids := st.List()
	if len(ids) != 1 {
		t.Fatalf("store holds %v", ids)
	}
	for _, format := range []string{"csv", "libsvm"} {
		sample, export := filepath.Join(dir, "sample."+format), filepath.Join(dir, "export."+format)
		if err := cmdSample([]string{"-store", reg, "-n", strconv.Itoa(rows), "-format", format, "-out", sample, ids[0]}); err != nil {
			t.Fatal(err)
		}
		if err := cmdExport([]string{"-store", reg, "-format", format, "-out", export, ids[0]}); err != nil {
			t.Fatal(err)
		}
		got, want := sortedLines(t, sample), sortedLines(t, export)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sample writes %q, export %q", format, got, want)
		}
		if !slices.ContainsFunc(want, func(l string) bool { return strings.HasSuffix(l, ",2") || strings.HasPrefix(l, "2 ") }) {
			t.Fatalf("%s: export %q lacks the stored label 2", format, want)
		}
	}
}

func sortedLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	slices.Sort(lines)
	return lines
}
