// Command blinkml-bench regenerates the paper's evaluation tables and
// figures (Figures 5–11, Tables 4–9) on the synthetic workloads. The repo's
// performance benchmark is a separate program, `go run ./benchmark` (see
// BENCHMARK.json).
//
// Usage:
//
//	blinkml-bench -list
//	blinkml-bench -experiment fig5-lr-criteo -scale medium
//	blinkml-bench -all -scale small
//
// With -load it instead drives a live blinkml-serve instance with the
// open-loop load harness (internal/loadgen) and appends the stepped-QPS
// sweep — coordinated-omission-safe tail latencies, achieved vs offered
// rate, max sustainable QPS under the SLO — to BENCH_load.json:
//
//	blinkml-bench -load -addr http://localhost:8080 -qps 100,200,400,800
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"blinkml/internal/compute"
	"blinkml/internal/experiments"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		exp        = flag.String("experiment", "", "experiment id (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.String("scale", "small", "small | medium | large")
		seed       = flag.Int64("seed", 1, "random seed")
		par        = flag.Int("parallelism", 0, "compute-pool degree for all training kernels (0 = GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")
		load       = flag.Bool("load", false, "run the open-loop load sweep against a live blinkml-serve (see -addr, -qps)")
	)
	lf := registerLoadFlags()
	flag.Parse()
	compute.SetParallelism(*par)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() runs stopProfiles before os.Exit, so an error mid-run
		// still leaves a parseable profile.
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfiles()
	}
	if *memProfile != "" {
		writeMemProfile = func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "blinkml-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "blinkml-bench: memprofile:", err)
			}
		}
		defer stopProfiles()
	}

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-18s %s\n", r.ID, r.Desc)
		}
		return
	}
	if *load {
		if err := runLoad(lf, *seed); err != nil {
			fatal(err)
		}
		return
	}
	s, err := experiments.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	switch {
	case *all:
		if err := experiments.RunAll(s, *seed, os.Stdout); err != nil {
			fatal(err)
		}
	case *exp != "":
		r, err := experiments.RunnerByID(*exp)
		if err != nil {
			fatal(err)
		}
		tables, err := r.Run(s, *seed)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	default:
		fmt.Fprintln(os.Stderr, "blinkml-bench: pass -list, -all, -experiment <id>, or -load")
		os.Exit(2)
	}
}

// stopCPUProfile and writeMemProfile are installed when the respective
// flags are set; stopProfiles runs each at most once, on normal return
// (via defer) and on fatal() alike.
var (
	stopCPUProfile  func()
	writeMemProfile func()
)

func stopProfiles() {
	if stopCPUProfile != nil {
		stopCPUProfile()
		stopCPUProfile = nil
	}
	if writeMemProfile != nil {
		writeMemProfile()
		writeMemProfile = nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blinkml-bench:", err)
	stopProfiles()
	os.Exit(1)
}
