package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightEntry is one completed unit of traced work kept in the flight
// recorder's ring: a job's or task's finished record (Scope.Finish; read
// only), or an offending HTTP request (slow, errored, or SLO-violating). When
// a trigger fires, the ring is what explains the seconds leading up to it.
type FlightEntry struct {
	Trace      string          `json:"trace_id,omitempty"`
	JobID      string          `json:"job_id,omitempty"`
	Kind       string          `json:"kind"`
	Err        string          `json:"error,omitempty"`
	DurMs      float64         `json:"dur_ms"`
	FinishedAt time.Time       `json:"finished_at"`
	Spans      []Span          `json:"spans,omitempty"`
	Ledger     *LedgerSnapshot `json:"ledger,omitempty"`
}

// FlightConfig configures a FlightRecorder. Zero values take the defaults
// noted per field.
type FlightConfig struct {
	// Dir is the bundle directory (required; created if missing).
	Dir string
	// RingSize bounds the in-memory entry ring (default 64).
	RingSize int
	// MinInterval rate-limits dumps: triggers inside the interval after a
	// dump are dropped (default 30s).
	MinInterval time.Duration
	// MaxBundles rotates the on-disk directory: after a dump, the oldest
	// bundles beyond this count are deleted (default 8).
	MaxBundles int
	// CPUProfile is the CPU-profile capture window included in each bundle
	// (default 5s; negative skips the CPU profile; capture fails soft when
	// another profiler is already running).
	CPUProfile time.Duration
	// Ledgers, when set, returns the live (in-flight) job ledgers to include
	// in the bundle.
	Ledgers func() map[string]*LedgerSnapshot
	Logger  *slog.Logger

	// now is a test seam.
	now func() time.Time
}

// FlightRecorder keeps a bounded ring of recently completed traced work and,
// when triggered (SLO-window breach, slow-request hit, task failure), dumps
// an atomic diagnostic bundle to a rotated on-disk directory:
//
//	<dir>/fr-<utc-timestamp>-<seq>-<reason>/
//	  meta.json       trigger reason/detail, timestamps, entry count
//	  flight.json     ring contents, newest first
//	  ledgers.json    live per-job resource ledgers at dump time
//	  goroutines.txt  full goroutine dump
//	  heap.pprof      heap profile
//	  cpu.pprof       CPU profile over the configured window (optional)
//
// Bundles appear atomically (written to a dot-prefixed temp dir, then
// renamed), so a watcher never sees a half-written bundle.
type FlightRecorder struct {
	cfg FlightConfig

	mu   sync.Mutex
	ring []FlightEntry
	next int
	full bool

	lastDump atomic.Int64 // unix ns of last accepted trigger
	seq      atomic.Int64
	dumps    atomic.Int64 // completed dumps (tests and /metrics)
}

// NewFlightRecorder creates the bundle directory, removes the temp
// directories of dumps that died mid-write, and returns a recorder.
func NewFlightRecorder(cfg FlightConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a directory")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 30 * time.Second
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 8
	}
	switch {
	case cfg.CPUProfile == 0:
		cfg.CPUProfile = 5 * time.Second
	case cfg.CPUProfile < 0:
		cfg.CPUProfile = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-fr-") {
			os.RemoveAll(filepath.Join(cfg.Dir, e.Name())) // a dump that died mid-write
		}
	}
	return &FlightRecorder{cfg: cfg, ring: make([]FlightEntry, cfg.RingSize)}, nil
}

// Dir returns the bundle directory.
func (f *FlightRecorder) Dir() string { return f.cfg.Dir }

// Dumps reports how many bundles this recorder has written.
func (f *FlightRecorder) Dumps() int64 { return f.dumps.Load() }

// Record adds one completed entry to the ring. Nil-safe so call sites need
// no conditionals when the recorder is disabled.
func (f *FlightRecorder) Record(e FlightEntry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = e
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Entries returns the ring contents, newest first.
func (f *FlightRecorder) Entries() []FlightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	if f.full {
		n = len(f.ring)
	}
	out := make([]FlightEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	return out
}

// Trigger requests a diagnostic dump. It returns true when the dump was
// accepted (and started in the background) and false when rate-limited: at
// most one dump per MinInterval, no matter how many goroutines hit breaches
// concurrently. Nil-safe.
func (f *FlightRecorder) Trigger(reason, detail string) bool {
	if f == nil || !f.admit() {
		return false
	}
	go func() {
		if _, err := f.dump(reason, detail); err != nil {
			f.cfg.Logger.Warn("flight-record dump failed", "reason", reason, "err", err)
		}
	}()
	return true
}

// TriggerSync is Trigger with a synchronous dump — tests and shutdown paths
// use it to know the bundle is on disk. Returns the bundle name.
func (f *FlightRecorder) TriggerSync(reason, detail string) (string, error) {
	if f == nil {
		return "", fmt.Errorf("obs: no flight recorder")
	}
	if !f.admit() {
		return "", nil
	}
	return f.dump(reason, detail)
}

// admit is both triggers' rate limit: it claims the dump slot unless one
// was claimed inside MinInterval or a concurrent trigger claims it first.
func (f *FlightRecorder) admit() bool {
	now := f.cfg.now().UnixNano()
	last := f.lastDump.Load()
	if last != 0 && time.Duration(now-last) < f.cfg.MinInterval {
		return false
	}
	return f.lastDump.CompareAndSwap(last, now)
}

// sanitizeReason keeps bundle directory names shell- and URL-safe.
func sanitizeReason(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		default:
			out = append(out, '_')
		}
		if len(out) >= 32 {
			break
		}
	}
	if len(out) == 0 {
		return "trigger"
	}
	return string(out)
}

// dump writes one bundle and rotates old ones.
func (f *FlightRecorder) dump(reason, detail string) (string, error) {
	started := f.cfg.now()
	name := fmt.Sprintf("fr-%s-%04d-%s",
		started.UTC().Format("20060102T150405"), f.seq.Add(1), sanitizeReason(reason))
	tmp := filepath.Join(f.cfg.Dir, ".tmp-"+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after the rename succeeds

	entries := f.Entries()
	writeJSON := func(file string, v any) error {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, file), append(b, '\n'), 0o644)
	}
	if err := writeJSON("flight.json", entries); err != nil {
		return "", err
	}
	if f.cfg.Ledgers != nil {
		if live := f.cfg.Ledgers(); len(live) > 0 {
			if err := writeJSON("ledgers.json", live); err != nil {
				return "", err
			}
		}
	}

	// Goroutine dump: grow the buffer until the full dump fits.
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	if err := os.WriteFile(filepath.Join(tmp, "goroutines.txt"), buf, 0o644); err != nil {
		return "", err
	}

	if hf, err := os.Create(filepath.Join(tmp, "heap.pprof")); err == nil {
		werr := pprof.WriteHeapProfile(hf)
		cerr := hf.Close()
		if werr != nil || cerr != nil {
			f.cfg.Logger.Warn("flight-record heap profile failed", "err", werr)
		}
	}

	// CPU profile: fails soft when another profiler holds the singleton
	// (bench -cpuprofile, a concurrent pprof scrape).
	cpuErr := ""
	if f.cfg.CPUProfile > 0 {
		if cf, err := os.Create(filepath.Join(tmp, "cpu.pprof")); err == nil {
			if err := pprof.StartCPUProfile(cf); err != nil {
				cpuErr = err.Error()
				cf.Close()
				os.Remove(cf.Name())
			} else {
				time.Sleep(f.cfg.CPUProfile)
				pprof.StopCPUProfile()
				cf.Close()
			}
		}
	}

	meta := map[string]any{
		"reason":     reason,
		"detail":     detail,
		"created_at": started.UTC().Format(time.RFC3339Nano),
		"entries":    len(entries),
		"cpu_profile_ms": float64(f.cfg.CPUProfile) /
			float64(time.Millisecond),
	}
	if cpuErr != "" {
		meta["cpu_profile_error"] = cpuErr
	}
	if err := writeJSON("meta.json", meta); err != nil {
		return "", err
	}

	if err := os.Rename(tmp, filepath.Join(f.cfg.Dir, name)); err != nil {
		return "", err
	}
	f.dumps.Add(1)
	f.cfg.Logger.Warn("flight-record bundle written",
		"bundle", name, "reason", reason, "detail", detail, "entries", len(entries))
	f.rotate()
	return name, nil
}

// rotate deletes the oldest bundles beyond MaxBundles. Bundle names sort
// chronologically (UTC timestamp prefix), so lexical order is age order.
func (f *FlightRecorder) rotate() {
	names, err := f.bundleNames()
	if err != nil || len(names) <= f.cfg.MaxBundles {
		return
	}
	for _, name := range names[:len(names)-f.cfg.MaxBundles] {
		if err := os.RemoveAll(filepath.Join(f.cfg.Dir, name)); err != nil {
			f.cfg.Logger.Warn("flight-record rotation failed", "bundle", name, "err", err)
		}
	}
}

func (f *FlightRecorder) bundleNames() ([]string, error) {
	ents, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "fr-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// BundleFile is one file inside a bundle.
type BundleFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// BundleInfo describes one on-disk bundle for GET /v1/debug/flightrecords.
type BundleInfo struct {
	Name      string       `json:"name"`
	CreatedAt time.Time    `json:"created_at"`
	Files     []BundleFile `json:"files"`
}

// Bundles lists on-disk bundles, newest first.
func (f *FlightRecorder) Bundles() ([]BundleInfo, error) {
	if f == nil {
		return nil, nil
	}
	names, err := f.bundleNames()
	if err != nil {
		return nil, err
	}
	out := make([]BundleInfo, 0, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		name := names[i]
		info := BundleInfo{Name: name}
		if st, err := os.Stat(filepath.Join(f.cfg.Dir, name)); err == nil {
			info.CreatedAt = st.ModTime().UTC()
		}
		files, err := os.ReadDir(filepath.Join(f.cfg.Dir, name))
		if err != nil {
			continue
		}
		for _, fe := range files {
			if fe.IsDir() {
				continue
			}
			bf := BundleFile{Name: fe.Name()}
			if st, err := fe.Info(); err == nil {
				bf.Bytes = st.Size()
			}
			info.Files = append(info.Files, bf)
		}
		out = append(out, info)
	}
	return out, nil
}

// ReadBundleFile returns one file from one bundle, rejecting any name that
// could escape the bundle directory.
func (f *FlightRecorder) ReadBundleFile(bundle, file string) ([]byte, error) {
	if f == nil {
		return nil, os.ErrNotExist
	}
	if !strings.HasPrefix(bundle, "fr-") || bundle != filepath.Base(bundle) ||
		file == "" || file != filepath.Base(file) || strings.HasPrefix(file, ".") {
		return nil, os.ErrNotExist
	}
	return os.ReadFile(filepath.Join(f.cfg.Dir, bundle, file))
}
