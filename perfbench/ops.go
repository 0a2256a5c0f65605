package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/churn"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wSolve  = "solve-open"
	wVerify = "verify-closed"
	wChurn  = "churn-sessions"
	wSweep  = "sweep-durable"
)

var workloadNames = []string{wSolve, wVerify, wChurn, wSweep}

// Fixed load settings. None is derived from a capacity measured at run
// time, so the parent and a change always receive the same load.
const (
	// solveRate is the open-loop offered rate of solve-open, requests/s.
	// On the 2-CPU reference host the daemon spends about 2.7 ms of CPU
	// per request of this mix, so it runs at about a third of the host:
	// below the knee, where latency does not depend on the backlog.
	solveRate = 250.0
	// Closed-loop op counts per second of --seconds, sized from the
	// rates measured on the reference host so a run measures about
	// --seconds there. The count, not the clock, ends a run.
	verifyOpsPerSec = 70
	churnEventsPerS = 1050
	sweepShardsPerS = 850
	// warmupOps ops of the same mix run untimed before the timed phase.
	warmupOps = 100
)

// op is one request of a workload's op list. Key names the distinct
// input it carries: ops with equal Key send equal bodies (except the
// churn session id, which the daemon assigns) and must get equal
// answers, so the answer checks compute each expected answer once.
type op struct {
	Client int           `json:"client"`          // closed loop: the client that sends it
	Due    time.Duration `json:"due_ns"`          // open loop: send time after the phase starts
	Kind   string        `json:"kind"`            // solve, verify, create, event, delete, shard
	Key    int           `json:"key"`             // distinct-input index (see above)
	Event  int           `json:"event,omitempty"` // churn: event index within the session
	Body   []byte        `json:"body,omitempty"`
}

// plan is a workload's complete seeded input: everything the daemon is
// sent. The same (workload, seed, seconds) gives a byte-identical plan.
type plan struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Clients  int    `json:"clients"`
	Warmup   []op   `json:"warmup"`
	Ops      []op   `json:"ops"`

	Solve  *solvePlan  `json:"solve,omitempty"`
	Verify *verifyPlan `json:"verify,omitempty"`
	Churn  *churnPlan  `json:"churn,omitempty"`
	Sweep  *sweepPlan  `json:"sweep,omitempty"`
}

// solveClass is one size cluster of the solve-open mix.
type solveClass struct {
	N      int
	Alpha  float64
	Weight int // ops per 100
}

// solveClasses weights the sizes so neither reported percentile sits
// on the boundary between two clusters: the cumulative shares are
// 0.10 | 0.30 | 0.60 | 0.82 | 1.00, so p50 falls inside N=60 and p90
// inside N=300. The alpha=1.7 entries are refs the daemon turns away
// at Precheck (every alpha=1.7 cell at N>=140 is infeasible).
var solveClasses = []solveClass{
	{N: 140, Alpha: 1.7, Weight: 5},
	{N: 300, Alpha: 1.7, Weight: 5},
	{N: 20, Alpha: 0.9, Weight: 20},
	{N: 60, Alpha: 0.9, Weight: 30},
	{N: 140, Alpha: 0.9, Weight: 22},
	{N: 300, Alpha: 0.9, Weight: 18},
}

// solvePoolPerClass distinct refs per class; ops cycle through them.
const solvePoolPerClass = 48

type solveInput struct {
	Ref  serve.CorpusRef `json:"ref"`
	Seed int64           `json:"seed"`
}

type solvePlan struct {
	Inputs []solveInput `json:"inputs"` // indexed by op Key
}

// verifyPlan: the mapping verified for each input is the portfolio's
// best, solved in-process while the plan is made.
type verifyPlan struct {
	Inputs []serve.CorpusRef   `json:"inputs"`
	Specs  []serve.MappingSpec `json:"specs"`
	Costs  []float64           `json:"costs"`
}

// clientsFor is the number of closed-loop clients (and connections) of
// workload w: nproc, except on verify-closed, where nproc-1 clients
// leave one CPU to the HTTP layers of both processes. With nproc
// clients every CPU runs a simulation and the spread of p50 between
// runs of identical code was 0.24-0.30 on a 2-CPU host, against 0.17
// with one client.
func clientsFor(w string) int {
	if w == wVerify {
		return max(1, clientCount()-1)
	}
	return clientCount()
}

// verifyClasses: N=140 (117 ms) and N=300 (506 ms) simulations are left
// out; the 30/70 weighting keeps p50 and p90 inside the N=60 cluster.
var verifyClasses = []struct {
	N      int
	Weight int
}{{20, 30}, {60, 70}}

const verifyPoolPerClass = 16

// churnSessionEvents events are posted per session.
const churnSessionEvents = 20

// churnSpec is the scenario every churn session runs: four initial
// applications of 5-9 operators, at most 8 live, rho 2 drifting up by
// at most 1.6x per event to at most 8, on an alpha=2 object universe.
// With 20 events per session about half the events are repaired, 47%
// fall back to a re-solve and 0.5% are rejected.
func churnSpec() serve.ScenarioSpec {
	return serve.ScenarioSpec{
		InitialApps: 4, MinOps: 5, MaxOps: 9, MaxApps: 8,
		Rho: 2, RhoMax: 8, Drift: "up", DriftMax: 1.6, Alpha: 2,
	}
}

// churnScenarioConfig mirrors the daemon's conversion of churnSpec.
func churnScenarioConfig(events int) churn.ScenarioConfig {
	s := churnSpec()
	return churn.ScenarioConfig{
		InitialApps: s.InitialApps, Events: events, MinOps: s.MinOps, MaxOps: s.MaxOps,
		Rho: s.Rho, MaxApps: s.MaxApps, Drift: churn.DriftUp, DriftMax: s.DriftMax,
		RhoMax: s.RhoMax, Base: instance.Config{Alpha: s.Alpha},
	}
}

type churnPlan struct {
	Seeds  []int64         `json:"seeds"`  // scenario seed per Key (one Key per session)
	Events [][]churn.Event `json:"events"` // posted events per Key
}

// sweepFigure and sweepSeeds define every sweep job: fig2a with ten
// seeds per point, cut into the coordinator's maximum of 256 shards so
// each op is a small shard and the coordinator's share is visible.
const (
	sweepFigure = "fig2a"
	sweepSeeds  = 10
	sweepShards = 256
	// sweepBaseSeeds distinct base seeds; jobs cycle through them.
	sweepBaseSeeds = 2
	// sweepMaxJobs: the coordinator retains at most 64 jobs, finished
	// ones included, and the warm-up job takes one.
	sweepMaxJobs = 63
)

type sweepPlan struct {
	BaseSeeds []int64 `json:"base_seeds"`
	Jobs      []int   `json:"jobs"` // base-seed index per job, in submit order
}

// makePlan builds the seeded op list of workload w for a run of the
// given length.
func makePlan(w string, seed int64, seconds int, clients int) (*plan, error) {
	p := &plan{Workload: w, Seed: seed, Clients: clients}
	r := rng.Derive(seed, "perfbench:"+w)
	switch w {
	case wSolve:
		p.Solve = &solvePlan{}
		for _, c := range solveClasses {
			for i := 0; i < solvePoolPerClass; i++ {
				p.Solve.Inputs = append(p.Solve.Inputs, solveInput{
					Ref:  serve.CorpusRef{N: c.N, Alpha: c.Alpha, Seed: r.Int63n(1 << 40)},
					Seed: r.Int63n(1 << 40),
				})
			}
		}
		p.Warmup = solveOps(r, warmupOps, p.Solve)
		p.Ops = solveOps(r, int(solveRate)*seconds, p.Solve)
	case wVerify:
		p.Verify = &verifyPlan{}
		a := newArena()
		var weights []int
		for _, c := range verifyClasses {
			for i := 0; i < verifyPoolPerClass; {
				ref := serve.CorpusRef{N: c.N, Alpha: 0.9, Seed: r.Int63n(1 << 40)}
				ans := a.solve(solveInput{Ref: ref}, nil, 0, -1)
				if !ans.Feasible {
					continue // draw another seed: only feasible mappings are verified
				}
				p.Verify.Inputs = append(p.Verify.Inputs, ref)
				p.Verify.Specs = append(p.Verify.Specs, ans.Spec)
				p.Verify.Costs = append(p.Verify.Costs, ans.Costs[ans.Best])
				i++
			}
			weights = append(weights, c.Weight)
		}
		p.Warmup = closedOps(r, warmupOps/4, clients, weights, verifyPoolPerClass, "verify")
		p.Ops = closedOps(r, verifyOpsPerSec*seconds, clients, weights, verifyPoolPerClass, "verify")
	case wChurn:
		p.Churn = &churnPlan{}
		// Every session runs its own scenario: the metrics average over
		// hundreds of scenarios, so they move little from seed to seed.
		sessions := max(clients, churnEventsPerS*seconds/churnSessionEvents)
		for s := 0; s < sessions+clients; s++ {
			seed := r.Int63n(1 << 40)
			p.Churn.Seeds = append(p.Churn.Seeds, seed)
			p.Churn.Events = append(p.Churn.Events, churn.NewScenario(churnScenarioConfig(churnSessionEvents), seed).Events)
			c := s % clients
			ops := []op{{Client: c, Kind: "create", Key: s}}
			for e := 0; e < churnSessionEvents; e++ {
				ops = append(ops, op{Client: c, Kind: "event", Key: s, Event: e})
			}
			ops = append(ops, op{Client: c, Kind: "delete", Key: s})
			if s < clients {
				p.Warmup = append(p.Warmup, ops...)
			} else {
				p.Ops = append(p.Ops, ops...)
			}
		}
	case wSweep:
		p.Sweep = &sweepPlan{}
		for i := 0; i < sweepBaseSeeds; i++ {
			p.Sweep.BaseSeeds = append(p.Sweep.BaseSeeds, 1+r.Int63n(1<<30))
		}
		jobs := max(1, (sweepShardsPerS*seconds+sweepShards/2)/sweepShards)
		if jobs > sweepMaxJobs {
			return nil, fmt.Errorf("%s: --seconds %d needs %d jobs; the coordinator keeps at most %d besides the warm-up job",
				w, seconds, jobs, sweepMaxJobs)
		}
		for j := 0; j < jobs; j++ {
			p.Sweep.Jobs = append(p.Sweep.Jobs, j%sweepBaseSeeds)
		}
		// Shard ops are claimed dynamically: one op per shard, in claim
		// order, filled in by the worker loops.
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloadNames)
	}
	if err := p.render(); err != nil {
		return nil, err
	}
	return p, nil
}

// timedOps is the number of ops the latency metrics are computed over:
// churn events (not creates and deletes) and sweep shards.
func (p *plan) timedOps() int {
	switch p.Workload {
	case wChurn:
		return len(p.Ops) * churnSessionEvents / (churnSessionEvents + 2)
	case wSweep:
		return len(p.Sweep.Jobs) * sweepShards
	}
	return len(p.Ops)
}

// eventRequest is the wire form of a churn event.
func eventRequest(ev churn.Event) serve.ScenarioEventRequest {
	req := serve.ScenarioEventRequest{Kind: ev.Kind.String()}
	switch ev.Kind {
	case churn.Arrive:
		req.NumOps, req.TreeSeed, req.Rho = ev.NumOps, ev.TreeSeed, ev.Rho
	case churn.Depart:
		req.Slot = ev.Slot
	case churn.Drift:
		req.Slot, req.Factor = ev.Slot, ev.Factor
	}
	return req
}

// solveOps draws n solve ops: exact per-class counts from the weights,
// shuffled, each class cycling through its pool, with seeded Poisson
// arrivals at solveRate.
func solveOps(r *rand.Rand, n int, sp *solvePlan) []op {
	var keys []int
	for ci, c := range solveClasses {
		cnt := int(math.Round(float64(n) * float64(c.Weight) / 100))
		for i := 0; i < cnt; i++ {
			keys = append(keys, ci*solvePoolPerClass+i%solvePoolPerClass)
		}
	}
	for len(keys) < n {
		keys = append(keys, (len(solveClasses)-1)*solvePoolPerClass)
	}
	keys = keys[:n]
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	// Poisson arrivals, rescaled so the last one is due at exactly
	// n/solveRate: every seed offers exactly solveRate on average.
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	ops := make([]op, n)
	var t float64
	for i, k := range keys {
		t += gaps[i]
		ops[i] = op{Due: time.Duration(t / total * float64(n) / solveRate * 1e9), Kind: "solve", Key: k}
	}
	return ops
}

// closedOps draws n ops of a closed loop over weighted pools, dealt
// round-robin to the clients.
func closedOps(r *rand.Rand, n, clients int, weights []int, pool int, kind string) []op {
	total := 0
	for _, w := range weights {
		total += w
	}
	var keys []int
	for ci, w := range weights {
		cnt := int(math.Round(float64(n) * float64(w) / float64(total)))
		for i := 0; i < cnt; i++ {
			keys = append(keys, ci*pool+i%pool)
		}
	}
	for len(keys) < n {
		keys = append(keys, 0)
	}
	keys = keys[:n]
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	ops := make([]op, n)
	for i, k := range keys {
		ops[i] = op{Client: i % clients, Kind: kind, Key: k}
	}
	return ops
}

// render fills in every op's request body, so the timed phase only
// sends bytes.
func (p *plan) render() error {
	for _, list := range [][]op{p.Warmup, p.Ops} {
		for i := range list {
			o := &list[i]
			var body any
			switch o.Kind {
			case "solve":
				in := p.Solve.Inputs[o.Key]
				ref := in.Ref
				body = serve.SolveRequest{Ref: &ref, Seed: in.Seed}
			case "verify":
				spec := p.Verify.Specs[o.Key]
				ref := p.Verify.Inputs[o.Key]
				body = serve.VerifyRequest{Ref: &ref, Mapping: &spec}
			case "create":
				body = serve.ScenarioRequest{Scenario: churnSpec(), Seed: p.Churn.Seeds[o.Key]}
			case "event":
				body = eventRequest(p.Churn.Events[o.Key][o.Event])
			default:
				continue // delete has no body
			}
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			o.Body = b
		}
	}
	return nil
}
