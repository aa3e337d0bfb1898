package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testFlight builds a recorder with a deterministic clock and no CPU-profile
// window (tests should not sleep 5s per dump).
func testFlight(t *testing.T, ringSize int, minInterval time.Duration, maxBundles int, now func() time.Time) *FlightRecorder {
	t.Helper()
	f, err := NewFlightRecorder(FlightConfig{
		Dir:         t.TempDir(),
		RingSize:    ringSize,
		MinInterval: minInterval,
		MaxBundles:  maxBundles,
		CPUProfile:  -1,
		Logger:      Discard(),
		now:         now,
	})
	if err != nil {
		t.Fatalf("new flight recorder: %v", err)
	}
	return f
}

func TestFlightRingNewestFirstAndBounded(t *testing.T) {
	f := testFlight(t, 4, time.Minute, 2, nil)
	for i := 0; i < 7; i++ {
		f.Record(FlightEntry{JobID: fmt.Sprintf("j-%d", i)})
	}
	got := f.Entries()
	if len(got) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(got))
	}
	for i, want := range []string{"j-6", "j-5", "j-4", "j-3"} {
		if got[i].JobID != want {
			t.Fatalf("entry %d = %s, want %s (newest first)", i, got[i].JobID, want)
		}
	}
}

func TestFlightTriggerRateLimitConcurrent(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	f := testFlight(t, 8, 30*time.Second, 4, func() time.Time { return base })
	f.Record(FlightEntry{JobID: "j-1", Kind: "job:train"})

	// Many goroutines hit a breach at the same instant: exactly one dump.
	var wg sync.WaitGroup
	var accepted sync.Map
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name, err := f.TriggerSync("slo-breach", "goroutine race")
			if err != nil {
				t.Errorf("trigger %d: %v", g, err)
			}
			if name != "" {
				accepted.Store(name, true)
			}
		}(g)
	}
	wg.Wait()
	var names []string
	accepted.Range(func(k, _ any) bool { names = append(names, k.(string)); return true })
	if len(names) != 1 {
		t.Fatalf("accepted dumps %v, want exactly one", names)
	}
	if f.Dumps() != 1 {
		t.Fatalf("dump count %d, want 1", f.Dumps())
	}

	// Inside the interval: rate-limited. Past it: accepted again.
	if name, _ := f.TriggerSync("slo-breach", "again"); name != "" {
		t.Fatalf("trigger inside the interval wrote %s", name)
	}
	base = base.Add(31 * time.Second)
	if name, _ := f.TriggerSync("slo-breach", "later"); name == "" {
		t.Fatal("trigger past the interval was rate-limited")
	}
}

func TestFlightBundleContents(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	ledgers := map[string]*LedgerSnapshot{"j-1": {KernelCalls: 42}}
	f, err := NewFlightRecorder(FlightConfig{
		Dir:        filepath.Join(t.TempDir(), "flight"),
		CPUProfile: -1,
		Ledgers:    func() map[string]*LedgerSnapshot { return ledgers },
		Logger:     Discard(),
		now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatalf("new flight recorder: %v", err)
	}
	f.Record(FlightEntry{JobID: "j-1", Kind: "job:train", DurMs: 12.5})

	name, err := f.TriggerSync("slow-request", "POST /v1/train 900ms")
	if err != nil || name == "" {
		t.Fatalf("trigger: name=%q err=%v", name, err)
	}
	if !strings.HasPrefix(name, "fr-20260807T120000-0001-slow-request") {
		t.Fatalf("bundle name %q", name)
	}

	// The ring contents round-trip through flight.json.
	raw, err := f.ReadBundleFile(name, "flight.json")
	if err != nil {
		t.Fatalf("read flight.json: %v", err)
	}
	var entries []FlightEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("parse flight.json: %v", err)
	}
	if len(entries) != 1 || entries[0].JobID != "j-1" {
		t.Fatalf("flight.json entries: %+v", entries)
	}
	// Live ledgers and the trigger metadata are present.
	raw, err = f.ReadBundleFile(name, "ledgers.json")
	if err != nil || !strings.Contains(string(raw), `"kernel_calls": 42`) {
		t.Fatalf("ledgers.json: %s (err %v)", raw, err)
	}
	raw, err = f.ReadBundleFile(name, "meta.json")
	if err != nil || !strings.Contains(string(raw), "slow-request") {
		t.Fatalf("meta.json: %s (err %v)", raw, err)
	}
	for _, file := range []string{"goroutines.txt", "heap.pprof"} {
		if _, err := f.ReadBundleFile(name, file); err != nil {
			t.Fatalf("bundle missing %s: %v", file, err)
		}
	}
	// No temp directory left behind.
	ents, _ := os.ReadDir(f.Dir())
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp dir %s", e.Name())
		}
	}

	bundles, err := f.Bundles()
	if err != nil || len(bundles) != 1 || bundles[0].Name != name {
		t.Fatalf("Bundles() = %+v (err %v)", bundles, err)
	}
}

func TestFlightRotation(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	f := testFlight(t, 4, time.Nanosecond, 2, func() time.Time { return now })
	var names []string
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		name, err := f.TriggerSync("slo-breach", "rotation")
		if err != nil || name == "" {
			t.Fatalf("dump %d: name=%q err=%v", i, name, err)
		}
		names = append(names, name)
	}
	kept, err := f.bundleNames()
	if err != nil {
		t.Fatalf("bundle names: %v", err)
	}
	if len(kept) != 2 {
		t.Fatalf("kept %v, want the newest 2", kept)
	}
	if kept[0] != names[3] || kept[1] != names[4] {
		t.Fatalf("kept %v, want %v", kept, names[3:])
	}
}

// TestFlightSweepsDeadDumps: a new recorder removes the temp directory a
// dump left when it died mid-write, and keeps every finished bundle.
func TestFlightSweepsDeadDumps(t *testing.T) {
	f := testFlight(t, 4, time.Minute, 2, nil)
	name, err := f.TriggerSync("probe", "")
	if err != nil || name == "" {
		t.Fatalf("dump: name=%q err=%v", name, err)
	}
	dead := filepath.Join(f.Dir(), ".tmp-fr-20260101T000000-0001-probe")
	if err := os.MkdirAll(dead, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dead, "heap.pprof"), []byte("heap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFlightRecorder(FlightConfig{Dir: f.Dir(), CPUProfile: -1, Logger: Discard()}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Fatalf("dead dump's temp dir survived the reopen: %v", err)
	}
	if _, err := os.Stat(filepath.Join(f.Dir(), name, "meta.json")); err != nil {
		t.Fatalf("finished bundle %s: %v", name, err)
	}
}

func TestFlightReadBundleFileRejectsTraversal(t *testing.T) {
	f := testFlight(t, 4, time.Minute, 2, nil)
	name, err := f.TriggerSync("probe", "")
	if err != nil || name == "" {
		t.Fatalf("trigger: name=%q err=%v", name, err)
	}
	// Plant a file outside any bundle to prove traversal cannot reach it.
	secret := filepath.Join(f.Dir(), "secret.txt")
	if err := os.WriteFile(secret, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]string{
		{"../" + filepath.Base(f.Dir()), "secret.txt"},
		{name, "../secret.txt"},
		{name, "../../etc/passwd"},
		{"not-a-bundle", "meta.json"},
		{name, ".hidden"},
		{name, ""},
	} {
		if _, err := f.ReadBundleFile(tc[0], tc[1]); err == nil {
			t.Fatalf("ReadBundleFile(%q, %q) succeeded, want rejection", tc[0], tc[1])
		}
	}
	// The legitimate read still works.
	if _, err := f.ReadBundleFile(name, "meta.json"); err != nil {
		t.Fatalf("legitimate read failed: %v", err)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEntry{})
	if f.Entries() != nil {
		t.Fatal("nil Entries")
	}
	if f.Trigger("x", "y") {
		t.Fatal("nil Trigger accepted")
	}
	if b, err := f.Bundles(); err != nil || b != nil {
		t.Fatal("nil Bundles")
	}
	if _, err := f.ReadBundleFile("fr-x", "meta.json"); err == nil {
		t.Fatal("nil ReadBundleFile should error")
	}
}
