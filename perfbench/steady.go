package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// childRun is one benchmark run made by the steadiness report.
type childRun struct {
	res   result
	facts string // the "# deterministic" line
}

// runChild runs this binary once on one workload and parses its output.
func runChild(cfg config, w string, trace int) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(trace),
		"--serve", cfg.serveBin, "--build", cfg.buildDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run: %w", w, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	cr := &childRun{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.res); err != nil {
		return nil, fmt.Errorf("%s run: parsing result: %w", w, err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "# deterministic ") {
			cr.facts = l
		}
	}
	return cr, nil
}

// runSteady runs every workload k times with the same seed, in
// alternating order, then once traced. It prints, per end-to-end
// metric, the median, quartiles and extremes against the metric's bound
// from BENCHMARK.json (read from the working directory, the repository
// root), flags any spread outside it, checks that the deterministic
// counts repeat exactly, and reports the tracing overhead.
func runSteady(cfg config, k int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	runs := map[string][]*childRun{}
	for r := 0; r < k; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			cr, err := runChild(cfg, w, 0)
			if err != nil {
				return err
			}
			runs[w] = append(runs[w], cr)
			fmt.Fprintf(os.Stderr, "steady: %s run %d/%d done (failed %d)\n", w, r+1, k, cr.res.Failed)
		}
	}
	bad := 0
	fmt.Printf("# steadiness: %d runs per workload, seed %d, %d s\n", k, cfg.seed, cfg.seconds)
	for _, w := range names {
		fmt.Printf("\n## %s\n%-14s %12s %12s %12s %12s %12s %8s %6s\n", w, "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
		for _, e := range bf.EndToEnd {
			var xs []float64
			for _, cr := range runs[w] {
				xs = append(xs, cr.res.Metrics[e.Name].Value)
			}
			q1, q2, q3 := exclusiveQuartiles(xs)
			s := sortedCopy(xs)
			spread := (q3 - q1) / q2
			flag := ""
			// setup_s is judged on its median only: a few ms of boot
			// time spread widely from run to run.
			if spread > e.Bound && e.Name != "setup_s" {
				flag = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("%-14s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", e.Name, q2, q1, q3, s[0], s[len(s)-1], spread, e.Bound, flag)
		}
		failed := 0
		for _, cr := range runs[w] {
			failed += cr.res.Failed
			if cr.facts != runs[w][0].facts {
				fmt.Printf("DETERMINISTIC COUNTS DIFFER:\n  %s\n  %s\n", runs[w][0].facts, cr.facts)
				bad++
			}
		}
		fmt.Printf("failed ops over all runs: %d\n", failed)
		if failed > 0 {
			bad++
		}
		traced, err := runChild(cfg, w, 1)
		if err != nil {
			return err
		}
		var p50s, tails []float64
		for _, cr := range runs[w] {
			p50s = append(p50s, cr.res.Metrics["p50_ms"].Value)
			tails = append(tails, cr.res.Metrics["tail_p90_ms"].Value)
		}
		fmt.Printf("tracing overhead: p50 %+.4f ms, tail_p90 %+.4f ms (traced run minus untraced median)\n",
			traced.res.Metrics["trace.p50_ms"].Value-median(p50s), traced.res.Metrics["trace.tail_p90_ms"].Value-median(tails))
	}
	if bad > 0 {
		return fmt.Errorf("%d steadiness problems flagged above", bad)
	}
	return nil
}
