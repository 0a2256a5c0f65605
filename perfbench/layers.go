package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// perLayer lists every per-layer metric the traced run reports, in the
// order of BENCHMARK.json. A layer that does no work on a workload
// reports 0 there: the prediction for that workload is no change.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.overhead_ms", "ms"}, {"serve.residual_negative_share", "share"},
		{"serve.rejected_429", "count"}, {"serve.timeouts", "count"},
		{"instance.generate_us", "us"}, {"bounds.lower_bound_us", "us"},
		{"heuristics.portfolio_ms", "ms"},
	}
	for _, h := range portfolio {
		defs = append(defs, metricDef{"heuristics." + metricName(h) + "_ms", "ms"})
	}
	defs = append(defs, metricDef{"heuristics.winner_resolve_ms", "ms"}, metricDef{"heuristics.reject_share", "share"})
	for _, h := range portfolio {
		defs = append(defs, metricDef{"heuristics.win_share." + metricName(h), "share"})
	}
	return append(defs,
		metricDef{"stream.simulate_ms", "ms"}, metricDef{"stream.events_per_op", "count"},
		metricDef{"stream.events_per_ms", "1/ms"}, metricDef{"mapping.rebuild_us", "us"},
		metricDef{"churn.create_ms", "ms"}, metricDef{"churn.step_ms", "ms"},
		metricDef{"churn.step_ms.repaired", "ms"}, metricDef{"churn.step_ms.resolved", "ms"},
		metricDef{"churn.step_ms.rejected", "ms"}, metricDef{"churn.fallback_share", "share"},
		metricDef{"churn.rejected_share", "share"}, metricDef{"churn.resolve_policy_step_ms", "ms"},
		metricDef{"churn.moved_per_event", "ops"},
		metricDef{"coord.claim_ms", "ms"}, metricDef{"coord.complete_ms", "ms"},
		metricDef{"coord.complete_inproc_ms", "ms"}, metricDef{"coord.journal_appends_per_shard", "count"},
		metricDef{"coord.journal_syncs_per_shard", "count"}, metricDef{"coord.journal_bytes_per_shard", "bytes"},
		metricDef{"coord.merge_ms", "ms"}, metricDef{"coord.releases", "count"}, metricDef{"coord.duplicates", "count"},
		metricDef{"experiments.shard_ms", "ms"}, metricDef{"experiments.encode_ms", "ms"},
		metricDef{"experiments.cells_per_shard", "count"},
		metricDef{"trace.p50_ms", "ms"}, metricDef{"trace.tail_p90_ms", "ms"},
	)
}()

type metricDef struct{ name, unit string }

// httpSpan names the spans that time a round trip to the daemon.
func httpSpan(name string) bool { return name == "http" || strings.HasPrefix(name, "http.") }

// traceLayers replays the timed ops in-process, derives every per-layer
// metric from the spans, writes the spans out and appends the layer
// table to b.
func traceLayers(cfg config, p *plan, m *measured, c *checker, tr *tracer, dir string, facts map[string]float64, b *strings.Builder) (map[string]metric, error) {
	resolveStep := 0.0
	switch p.Workload {
	case wSolve:
		replaySolve(p, c.failed, tr)
	case wVerify:
		replayVerify(p, c.failed, tr)
	case wChurn:
		resolveStep = replayChurn(p, c.failed, tr)
	case wSweep:
		if err := replaySweep(p, m.jobIDs, m.srecs, dir, tr); err != nil {
			return nil, err
		}
	}

	vals := map[string]float64{}
	for k, v := range facts {
		vals[k] = v
	}
	// Mean duration per span of each name, in ms.
	sum, cnt := map[string]float64{}, map[string]int{}
	for i := range tr.spans {
		s := &tr.spans[i]
		sum[s.Name] += float64(s.dur()) / 1e6
		cnt[s.Name]++
	}
	meanMS := func(name string) float64 {
		if cnt[name] == 0 {
			return 0
		}
		return sum[name] / float64(cnt[name])
	}
	vals["instance.generate_us"] = 1000 * meanMS("instance.generate")
	vals["bounds.lower_bound_us"] = 1000 * meanMS("bounds.lower_bound")
	vals["heuristics.portfolio_ms"] = meanMS("heuristics.portfolio")
	for _, name := range heuristicSpans {
		vals[name+"_ms"] = meanMS(name)
	}
	vals["heuristics.winner_resolve_ms"] = meanMS("heuristics.winner_resolve")
	vals["stream.simulate_ms"] = meanMS("stream.simulate")
	if ms := sum["stream.simulate"]; ms > 0 {
		vals["stream.events_per_ms"] = vals["stream.events_per_op"] * float64(cnt["stream.simulate"]) / ms
	}
	vals["mapping.rebuild_us"] = 1000 * meanMS("mapping.rebuild")
	vals["churn.create_ms"] = meanMS("churn.create")
	var stepSum float64
	var stepCnt int
	for _, o := range []string{"repaired", "resolved", "rejected"} {
		vals["churn.step_ms."+o] = meanMS("churn.step." + o)
		stepSum += sum["churn.step."+o]
		stepCnt += cnt["churn.step."+o]
	}
	if stepCnt > 0 {
		vals["churn.step_ms"] = stepSum / float64(stepCnt)
	}
	vals["churn.resolve_policy_step_ms"] = resolveStep
	vals["coord.claim_ms"] = meanMS("http.claim")
	vals["coord.complete_ms"] = meanMS("http.complete")
	vals["coord.complete_inproc_ms"] = meanMS("coord.complete_inproc")
	vals["experiments.shard_ms"] = meanMS("experiments.shard")
	vals["experiments.encode_ms"] = meanMS("experiments.encode")
	if n := float64(len(m.srecs)); n > 0 {
		vals["coord.journal_syncs_per_shard"] = float64(m.st1.Sweep.JournalSyncs-m.st0.Sweep.JournalSyncs) / n
		vals["coord.journal_bytes_per_shard"] = float64(m.st1.Sweep.JournalBytes-m.st0.Sweep.JournalBytes) / n
		vals["coord.merge_ms"] = mean(m.mergeMS)
	}
	vals["coord.releases"] = float64(m.st1.Sweep.Releases - m.st0.Sweep.Releases)
	vals["coord.duplicates"] = float64(m.st1.Sweep.Duplicates - m.st0.Sweep.Duplicates)
	vals["serve.rejected_429"] = float64(m.st1.Rejected429 - m.st0.Rejected429)
	vals["serve.timeouts"] = float64(m.st1.Timeouts - m.st0.Timeouts)

	// serve.overhead_ms: per op, the HTTP round trips minus the replayed
	// layer time of the same op.
	httpMS := make([]float64, len(m.recs))
	replayMS := make([]float64, len(m.recs))
	replayed := make([]bool, len(m.recs))
	for i := range tr.spans {
		s := &tr.spans[i]
		switch {
		case httpSpan(s.Name):
			httpMS[s.Op] += float64(s.dur()) / 1e6
		case s.Name == "replay":
			replayMS[s.Op] += float64(s.dur()) / 1e6
			replayed[s.Op] = true
		}
	}
	var resid []float64
	var httpTotal, replayTotal float64
	negative := 0
	for i := range m.recs {
		if !replayed[i] {
			continue
		}
		r := httpMS[i] - replayMS[i]
		resid = append(resid, r)
		httpTotal += httpMS[i]
		replayTotal += replayMS[i]
		if r < 0 {
			negative++
		}
	}
	if len(resid) > 0 {
		vals["serve.overhead_ms"] = mean(resid)
		vals["serve.residual_negative_share"] = float64(negative) / float64(len(resid))
	}

	fmt.Fprintf(b, "# layer table (%d ops replayed; self time = span minus the part its child spans cover)\n", len(resid))
	for _, line := range strings.Split(strings.TrimRight(formatLayerTable(layerTable(tr.spans), max(len(resid), 1)), "\n"), "\n") {
		fmt.Fprintf(b, "#   %s\n", line)
	}
	if n := float64(len(resid)); n > 0 {
		fmt.Fprintf(b, "# per op: http %.4f ms = replayed layers %.4f ms + serve.overhead %.4f ms (median residual %.4f ms, %.1f%% of residuals negative)\n",
			httpTotal/n, replayTotal/n, vals["serve.overhead_ms"], median(resid), 100*vals["serve.residual_negative_share"])
		// A single op's residual is noisy: its replay ran at another time
		// than its HTTP span. A negative median is systematic: the
		// replay does more work than the daemon did.
		if median(resid) < 0 {
			fmt.Fprintf(b, "# WARNING: the median residual is negative: the replay has diverged from the daemon's path\n")
		}
	}
	path := filepath.Join(cfg.buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", p.Workload, p.Seed))
	if err := tr.flush(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b, "# %d spans written to %s\n", len(tr.spans), path)

	out := map[string]metric{}
	for _, d := range perLayer {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out, nil
}
