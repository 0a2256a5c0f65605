package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/coord"
)

// setupBoots daemons are booted per run; setup_s is their median. The
// last one serves the run.
const setupBoots = 21

// runOutput is one run's report text and JSON object.
type runOutput struct {
	report string
	out    result
}

// measured is what one run's timed phase produced.
type measured struct {
	recs     []rec
	timed    []bool // ops counted in latency and rate (churn: events only)
	t0       time.Time
	wall     time.Duration
	cpu      time.Duration
	samples  []cpuSample // daemon CPU time at each round boundary
	rssMB    float64
	st0, st1 *statsz
	setup    []float64

	// sweep-durable only
	jobIDs  []string
	results []string
	jobErrs []error
	srecs   []shardRec
	mergeMS []float64
}

func run(cfg config) (*runOutput, error) {
	clients := clientsFor(cfg.workload)
	p, err := makePlan(cfg.workload, cfg.seed, cfg.seconds, clients)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(cfg.buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer(16 * (len(p.Ops) + 4096))
	}
	m, err := measure(cfg, p, clients, dir, tr)
	if err != nil {
		return nil, err
	}

	// Answer checks, after the timed phase so they do not load it.
	c := newChecker(len(m.recs))
	c.transport(m.recs)
	facts := map[string]float64{}
	var meanCost float64
	attempted := len(m.recs)
	var sweepFailed int
	var sweepMsgs []string
	switch p.Workload {
	case wSolve:
		solveF := checkSolve(p, m.recs, c)
		meanCost = solveF.meanCost
		facts["heuristics.reject_share"] = solveF.rejectShare
		for i, h := range portfolio {
			facts["heuristics.win_share."+metricName(h)] = solveF.winShare[i]
		}
	case wVerify:
		verifyF := checkVerify(p, m.recs, c)
		meanCost = verifyF.meanCost
		facts["stream.events_per_op"] = verifyF.eventsPerOp
	case wChurn:
		churnF := checkChurn(p, m.recs, c)
		meanCost = churnF.meanCost
		if churnF.events > 0 {
			ev := float64(churnF.events)
			facts["churn.moved_per_event"] = float64(churnF.moved) / ev
			facts["churn.rejected_share"] = float64(churnF.rejects) / ev
		}
		if d := churnF.repaired + churnF.resolved; d > 0 {
			facts["churn.fallback_share"] = float64(churnF.resolved) / float64(d)
		}
	case wSweep:
		sweepFailed, sweepMsgs = checkSweep(context.Background(), p, m.results, m.jobErrs)
		attempted += len(p.Sweep.Jobs)
		var sum float64
		var ok, cells int
		for i := range m.srecs {
			sum += m.srecs[i].CostSum
			ok += m.srecs[i].OKCells
			cells += m.srecs[i].NCells
		}
		if ok > 0 {
			meanCost = sum / float64(ok)
		}
		if n := len(m.srecs); n > 0 {
			facts["experiments.cells_per_shard"] = float64(cells) / float64(n)
			facts["coord.journal_appends_per_shard"] = float64(m.st1.Sweep.JournalAppends-m.st0.Sweep.JournalAppends) / float64(n)
		}
	}
	failed := c.count() + sweepFailed
	msgs := append(c.msgs, sweepMsgs...)

	// End-to-end timing metrics: the median over rounds of each round's
	// value (see rounds.go).
	rs := roundStats(m.recs, m.timed, c.failed, m.samples)
	if len(rs) == 0 {
		return nil, fmt.Errorf("no op completed in the timed phase")
	}
	okTimed := 0
	for i := range m.recs {
		if m.timed[i] && !c.failed[i] {
			okTimed++
		}
	}
	rate := medianOf(rs, func(r roundStat) float64 { return r.rate })
	if p.Workload == wSolve {
		// The open loop's arrivals per round vary like a Poisson count;
		// over the whole phase they add up to exactly solveRate.
		rate = float64(okTimed) / m.wall.Seconds()
	}
	e2e := map[string]metric{
		"setup_s":     {median(m.setup), "s"},
		"p50_ms":      {medianOf(rs, func(r roundStat) float64 { return r.p50 }), "ms"},
		"tail_p90_ms": {medianOf(rs, func(r roundStat) float64 { return r.tail }), "ms"},
		"rate_per_s":  {rate, "1/s"},
		// Over the whole phase: per round, the 10 ms ticks of /proc would
		// quantize it by more than 1%.
		"cpu_ms_per_op": {float64(m.cpu.Nanoseconds()) / 1e6 / float64(max(okTimed, 1)), "ms"},
		"peak_rss_mb":   {m.rssMB, "MB"},
		"mean_cost":     {meanCost, "cost"},
	}

	var b strings.Builder
	header(&b, cfg, p, m, attempted, failed)
	for k, r := range rs {
		fmt.Fprintf(&b, "# round %d p50_ms=%.4f tail_p90_ms=%.4f rate_per_s=%.2f cpu_ms_per_op=%.4f\n", k, r.p50, r.tail, r.rate, r.cpuPerOp)
	}
	fmt.Fprintf(&b, "# deterministic mean_cost=%.17g", meanCost)
	for _, k := range sortedKeys(facts) {
		fmt.Fprintf(&b, " %s=%.17g", k, facts[k])
	}
	b.WriteString("\n")
	for _, msg := range msgs {
		fmt.Fprintf(&b, "# FAILED %s\n", msg)
	}

	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if cfg.trace == 0 {
		out.Metrics = e2e
		for _, k := range sortedKeys(e2e) {
			fmt.Fprintf(&b, "%-16s %14.6f %s\n", k, e2e[k].Value, e2e[k].Unit)
		}
		return &runOutput{report: b.String(), out: out}, nil
	}

	layers, err := traceLayers(cfg, p, m, c, tr, dir, facts, &b)
	if err != nil {
		return nil, err
	}
	layers["trace.p50_ms"] = metric{e2e["p50_ms"].Value, "ms"}
	layers["trace.tail_p90_ms"] = metric{e2e["tail_p90_ms"].Value, "ms"}
	out.Metrics = layers
	for _, k := range sortedKeys(layers) {
		fmt.Fprintf(&b, "%-40s %14.6f %s\n", k, layers[k].Value, layers[k].Unit)
	}
	return &runOutput{report: b.String(), out: out}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// measure boots the daemons, runs the warm-up and the timed phase, and
// stops the daemon.
func measure(cfg config, p *plan, clients int, dir string, tr *tracer) (*measured, error) {
	ctx := context.Background()
	m := &measured{}
	var d *daemon
	for i := 0; i < setupBoots; i++ {
		var args []string
		if p.Workload == wSweep {
			args = append(args, "-coord-state-dir", filepath.Join(dir, fmt.Sprintf("state-%d", i)))
		}
		nd, err := startDaemon(cfg.serveBin, args...)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, nd.setup.Seconds())
		if i < setupBoots-1 {
			if err := nd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = nd
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	pid := d.cmd.Process.Pid
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()

	var send func(list []op) func(client int) sendFunc
	switch p.Workload {
	case wSolve, wVerify:
		path := map[string]string{wSolve: "/v1/solve", wVerify: "/v1/verify"}[p.Workload]
		send = func(list []op) func(int) sendFunc {
			return func(int) sendFunc {
				return func(ctx context.Context, i int) (int, []byte, error) {
					return do(ctx, hc, "POST", d.base+path, list[i].Body)
				}
			}
		}
	case wChurn:
		send = func(list []op) func(int) sendFunc { return churnSender(hc, d.base, list) }
	}

	cl := &coord.Client{BaseURL: d.base, HTTPClient: hc}
	var err error
	switch p.Workload {
	case wSolve:
		runOpen(ctx, time.Now(), p.Warmup, clients, send(p.Warmup)(0), nil)
	case wVerify, wChurn:
		runClosed(ctx, time.Now(), p.Warmup, clients, send(p.Warmup), nil)
	case wSweep:
		if _, err = cl.Submit(ctx, coord.SweepJob{Figure: sweepFigure, Seeds: 1, BaseSeed: p.Sweep.BaseSeeds[0], Shards: 16}); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		if _, _, err = runSweepWorkers(ctx, time.Now(), cl, clients, 64); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		for _, b := range p.Sweep.Jobs {
			id, err := cl.Submit(ctx, coord.SweepJob{Figure: sweepFigure, Seeds: sweepSeeds,
				BaseSeed: p.Sweep.BaseSeeds[b], Shards: sweepShards})
			if err != nil {
				return nil, fmt.Errorf("submitting sweep job: %w", err)
			}
			m.jobIDs = append(m.jobIDs, id)
		}
	}

	if m.st0, err = d.statsz(ctx, hc); err != nil {
		return nil, err
	}
	m.t0 = time.Now().Add(2 * time.Millisecond)
	sampler := startCPUSampler(pid, m.t0, roundLength(cfg.seconds, p.timedOps()))
	switch p.Workload {
	case wSolve:
		m.recs = runOpen(ctx, m.t0, p.Ops, clients, send(p.Ops)(0), tr)
	case wVerify, wChurn:
		m.recs = runClosed(ctx, m.t0, p.Ops, clients, send(p.Ops), tr)
	case wSweep:
		m.recs, m.srecs, err = runSweepWorkers(ctx, m.t0, cl, clients, len(p.Sweep.Jobs)*sweepShards)
		sweepSpans(tr, m.srecs, m.t0)
	}
	var serr error
	m.samples, serr = sampler.finish()
	if err := errors.Join(err, serr); err != nil {
		return nil, err
	}
	last := m.samples[len(m.samples)-1]
	m.wall = time.Duration(last.at)
	m.cpu = last.cpu - m.samples[0].cpu
	m.timed = make([]bool, len(m.recs))
	for i := range m.recs {
		m.timed[i] = p.Workload != wChurn || p.Ops[i].Kind == "event"
	}
	if m.st1, err = d.statsz(ctx, hc); err != nil {
		return nil, err
	}
	if p.Workload == wSweep {
		for _, id := range m.jobIDs {
			dat, err := cl.Result(ctx, id)
			m.results = append(m.results, dat)
			m.jobErrs = append(m.jobErrs, err)
			if pr, err := cl.Progress(ctx, id); err == nil {
				m.mergeMS = append(m.mergeMS, pr.MergeMS)
			}
		}
	}
	hwm, err := statusKB(pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	m.rssMB = float64(hwm) / 1024
	hc.CloseIdleConnections()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	return m, nil
}

// churnSender returns each client's sender: the client remembers the
// session id its last create returned.
func churnSender(hc *http.Client, base string, list []op) func(int) sendFunc {
	return func(int) sendFunc {
		var id string
		return func(ctx context.Context, i int) (int, []byte, error) {
			o := &list[i]
			if o.Kind == "create" {
				id = ""
				status, body, err := do(ctx, hc, "POST", base+"/v1/scenario", o.Body)
				var st struct {
					ID string `json:"id"`
				}
				if err == nil && status == http.StatusOK && json.Unmarshal(body, &st) == nil {
					id = st.ID
				}
				return status, body, err
			}
			if id == "" {
				return 0, nil, errors.New("no live session")
			}
			if o.Kind == "event" {
				return do(ctx, hc, "POST", base+"/v1/scenario/"+id+"/event", o.Body)
			}
			status, body, err := do(ctx, hc, "DELETE", base+"/v1/scenario/"+id, nil)
			id = ""
			return status, body, err
		}
	}
}

// header writes the run header: host fingerprint, seed, op counts and
// generator lateness.
func header(b *strings.Builder, cfg config, p *plan, m *measured, attempted, failed int) {
	fmt.Fprintf(b, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(b, "# host nproc=%d gomaxprocs_bench=%d gomaxprocs_daemon=%d cpu=%q go=%s kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), m.st1.Workers, cpuModel(), runtime.Version(), kernel())
	fmt.Fprintf(b, "# ops attempted=%d ok=%d failed=%d timed=%d wall_s=%.3f daemon_cpu_s=%.2f\n",
		attempted, attempted-failed, failed, countTrue(m.timed), m.wall.Seconds(), m.cpu.Seconds())
	var late []float64
	for i := range m.recs {
		late = append(late, float64(m.recs[i].Sent-m.recs[i].Due)/1e6)
	}
	sort.Float64s(late)
	if len(late) > 0 {
		fmt.Fprintf(b, "# generator lateness_ms p99=%.3f max=%.3f (open loop only; 0 for closed loops)\n",
			quantile(late, 0.99), late[len(late)-1])
	}
	fmt.Fprintf(b, "# daemon rejected_429=%d timeouts=%d server_errors=%d\n",
		m.st1.Rejected429-m.st0.Rejected429, m.st1.Timeouts-m.st0.Timeouts, m.st1.ServerErrs-m.st0.ServerErrs)
}

func countTrue(xs []bool) int {
	n := 0
	for _, x := range xs {
		if x {
			n++
		}
	}
	return n
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
		}
	}
	return "unknown"
}

func kernel() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}
