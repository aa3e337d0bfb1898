package main

import (
	"math"
	"strings"
	"testing"
)

// TestLoadRatesMustBeFinite: strconv.ParseFloat reads "NaN" and "Inf"
// without error and "v <= 0" is false for NaN, so a sweep at NaN or
// infinite QPS, or under a NaN SLO that no step can meet, used to start.
func TestLoadRatesMustBeFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		qps                  string
		sloMs, sloQ, sloErrs float64
		want                 string // substring of the error; "" = accepted
	}{
		{"100, 200", 0, 0, 0, ""},
		{"100", 50, 0.9, 0.05, ""},
		{"NaN", 0, 0, 0, "NaN"},
		{"100,nan", 0, 0, 0, "nan"},
		{"+Inf", 0, 0, 0, "+Inf"},
		{"100,inf", 0, 0, 0, "inf"},
		{"-1", 0, 0, 0, "-1"},
		{"100", nan, 0, 0, "-slo-ms"},
		{"100", inf, 0, 0, "-slo-ms"},
		{"100", 0, nan, 0, "-slo-quantile"},
		{"100", 0, math.Inf(-1), 0, "-slo-quantile"},
		{"100", 0, 0, nan, "-slo-max-errors"},
		{"100", 0, 0, inf, "-slo-max-errors"},
	} {
		_, err := parseQPSSteps(tc.qps)
		if err == nil {
			_, err = sloFromFlags(tc.sloMs, tc.sloQ, tc.sloErrs)
		}
		if tc.want == "" && err != nil {
			t.Errorf("-qps %q, SLO (%v, %v, %v): %v", tc.qps, tc.sloMs, tc.sloQ, tc.sloErrs, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("-qps %q, SLO (%v, %v, %v): error %v, want one naming %s", tc.qps, tc.sloMs, tc.sloQ, tc.sloErrs, err, tc.want)
		}
	}
}
