package obs

import (
	"expvar"
	"testing"
)

// TestRegistryIsIdempotent: a second registry of the same name, as a second
// server in one process builds, hands back the vars the first published
// instead of panicking on the duplicate expvar name, and nothing is
// published before the first construction.
func TestRegistryIsIdempotent(t *testing.T) {
	const name = "blinkml_registrytest"
	if expvar.Get(name) != nil {
		t.Fatalf("%s published before any registry was built", name)
	}
	a, b := NewRegistry(name), NewRegistry(name)
	a.Int("n").Add(3)
	if got := b.Int("n").Value(); got != 3 {
		t.Fatalf("second registry's counter = %d, want the first's 3", got)
	}
	if a.Histogram("h") != b.Histogram("h") || a.HistogramVec("hv") != b.HistogramVec("hv") || a.GaugeVec("g") != b.GaugeVec("g") {
		t.Fatal("second registry built new vars under names already published")
	}
	m, ok := expvar.Get(name).(*expvar.Map)
	if !ok || m.Get("n") != a.Int("n") {
		t.Fatalf("%s is not the map the registry writes into", name)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("asking for a counter under a histogram's name did not panic")
		}
	}()
	a.Int("h")
}
