// Command perfbench is the repository's end-to-end benchmark. It boots
// a real cmd/serve daemon on loopback, drives one seeded workload at it
// from this single process with at most nproc connections, checks every
// answer against an in-process computation, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload solve-open --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --steady 5 --seconds 15
//
// With --trace 1 the run also replays every op in-process through the
// layers' public functions and reports per-layer metrics instead of the
// end-to-end ones. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", wSolve, "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the timed phase on the reference host, seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve", ".bench_build/bin/serve", "cmd/serve binary")
	flag.StringVar(&cfg.buildDir, "build", ".bench_build", "directory for binaries, daemon state dirs and span files")
	steady := flag.Int("steady", 0, "steadiness report: run every workload this many times (plus one traced run each)")
	flag.Parse()

	if *steady > 0 {
		if err := runSteady(cfg, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(res.report)
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	serveBin string
	buildDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// clientCount is how many connections and load goroutines the
// benchmark uses: the host's CPU count, so the generator never runs more
// threads than there are CPUs.
func clientCount() int { return runtime.NumCPU() }
