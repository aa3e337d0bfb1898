package obs

import (
	"runtime"
)

// Env is the environment stanza embedded in every BENCH_load.json run, so
// load sweeps recorded on different machines stay comparable: a p99
// regression means nothing without knowing whether the core count changed
// underneath it.
type Env struct {
	// GoVersion is the runtime's version string (e.g. "go1.24.0").
	GoVersion string `json:"go_version"`
	// OS and Arch are GOOS/GOARCH of the measuring process.
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// NumCPU is the machine's logical CPU count; GOMAXPROCS is the
	// scheduler parallelism the run actually used.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// CaptureEnv snapshots the current process's environment stanza.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
