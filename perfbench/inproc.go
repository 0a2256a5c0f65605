package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/stream"
)

// arena is the benchmark's in-process counterpart of one daemon
// worker's warmed arenas. The answer checks and the traced replay run
// every op through it, calling the same public functions the daemon
// calls, so a replayed op does the daemon's work minus the HTTP layer.
type arena struct {
	gen    instance.Generator
	sc     heuristics.SolveContext
	vmap   mapping.Mapping
	runner stream.Runner
}

func newArena() *arena {
	a := &arena{}
	a.sc.SetReuse(true)
	// Warm the arenas as the daemon's workers do.
	in := a.gen.Generate(instance.Config{NumOps: 8, Alpha: 0.9}, 1)
	if res, err := a.sc.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{}); err == nil {
		_, _ = a.runner.Simulate(res.Mapping, stream.Options{Results: 30})
	}
	return a
}

// portfolio is the paper's six heuristics in the daemon's order.
var portfolio = heuristics.All()

// heuristicSpans names each portfolio heuristic's replay span.
var heuristicSpans = func() []string {
	names := make([]string, len(portfolio))
	for i, h := range portfolio {
		names[i] = "heuristics." + metricName(h)
	}
	return names
}()

// metricName turns a heuristic name into its metric suffix
// ("Comp-Greedy" -> "comp_greedy").
func metricName(h heuristics.Heuristic) string {
	return strings.ReplaceAll(strings.ToLower(h.Name()), "-", "_")
}

// solveAnswer is the in-process answer to one solve request.
type solveAnswer struct {
	Feasible bool
	Rejected bool // infeasible, and Precheck refused the instance
	Costs    []float64
	OK       []bool
	Best     int // index into portfolio, -1 when infeasible
	Spec     serve.MappingSpec
}

func (a *arena) instance(ref serve.CorpusRef) *instance.Instance {
	return a.gen.Generate(instance.Config{NumOps: ref.N, Alpha: ref.Alpha}, ref.Seed)
}

// solve answers a solve request as the daemon's worker does: generate,
// lower bound, the portfolio in paper order, then a re-solve of the
// winner to materialize its mapping. Each step is a span under parent.
func (a *arena) solve(in solveInput, tr *tracer, opID, parent int) solveAnswer {
	sp := tr.begin("instance.generate", opID, parent)
	inst := a.instance(in.Ref)
	tr.end(sp)
	sp = tr.begin("bounds.lower_bound", opID, parent)
	_ = bounds.CostLowerBound(inst)
	tr.end(sp)

	ans := solveAnswer{Best: -1, Costs: make([]float64, len(portfolio)), OK: make([]bool, len(portfolio))}
	pf := tr.begin("heuristics.portfolio", opID, parent)
	for i, h := range portfolio {
		sp := tr.begin(heuristicSpans[i], opID, pf)
		res, err := a.sc.Solve(inst, h, heuristics.Options{Seed: in.Seed})
		tr.end(sp)
		if err != nil {
			continue
		}
		ans.OK[i], ans.Costs[i] = true, res.Cost
		if ans.Best < 0 || res.Cost < ans.Costs[ans.Best] {
			ans.Best = i
		}
	}
	tr.end(pf)
	if ans.Best < 0 {
		ans.Rejected = heuristics.Precheck(inst) != nil
	} else {
		sp := tr.begin("heuristics.winner_resolve", opID, parent)
		res, err := a.sc.Solve(inst, portfolio[ans.Best], heuristics.Options{Seed: in.Seed})
		tr.end(sp)
		if err == nil {
			ans.Feasible = true
			ans.Spec = mappingSpec(res.Mapping)
		}
	}
	return ans
}

// mappingSpec renders a mapping in the daemon's canonical wire form:
// compact processor numbering, downloads sorted by (proc, object).
func mappingSpec(m *mapping.Mapping) serve.MappingSpec {
	spec := serve.MappingSpec{
		Procs:     []serve.ProcSpec{},
		Assign:    make([]int, len(m.Assign)),
		Downloads: []serve.DownloadSpec{},
	}
	compact := make([]int, len(m.Procs))
	for p := range m.Procs {
		compact[p] = -1
		if m.Procs[p].Alive {
			compact[p] = len(spec.Procs)
			spec.Procs = append(spec.Procs, serve.ProcSpec{CPU: m.Procs[p].Config.CPU, NIC: m.Procs[p].Config.NIC})
		}
	}
	for op, p := range m.Assign {
		spec.Assign[op] = -1
		if p != mapping.Unassigned {
			spec.Assign[op] = compact[p]
		}
	}
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		var objs []int
		for k := range m.DL[p] {
			objs = append(objs, k)
		}
		sort.Ints(objs)
		for _, k := range objs {
			spec.Downloads = append(spec.Downloads, serve.DownloadSpec{Proc: compact[p], Object: k, Server: m.DL[p][k]})
		}
	}
	return spec
}

// rebuild reconstructs a wire mapping onto m through mapping's public
// API and validates it against the full constraint system.
func rebuild(m *mapping.Mapping, in *instance.Instance, spec *serve.MappingSpec) error {
	cat := in.Platform.Catalog
	m.Reset(in)
	for i, pc := range spec.Procs {
		if pc.CPU < 0 || pc.CPU >= len(cat.CPUs) || pc.NIC < 0 || pc.NIC >= len(cat.NICs) {
			return fmt.Errorf("proc %d outside the catalog", i)
		}
		m.Buy(platform.Config{CPU: pc.CPU, NIC: pc.NIC})
	}
	if len(spec.Assign) != in.Tree.NumOps() {
		return fmt.Errorf("assign lists %d operators, instance has %d", len(spec.Assign), in.Tree.NumOps())
	}
	for op, p := range spec.Assign {
		if p < 0 || p >= len(spec.Procs) {
			return fmt.Errorf("operator %d on invalid processor %d", op, p)
		}
		m.Place(op, p)
	}
	for i, d := range spec.Downloads {
		if d.Proc < 0 || d.Proc >= len(spec.Procs) || d.Object < 0 || d.Object >= in.NumTypes ||
			d.Server < 0 || d.Server >= len(in.Platform.Servers) {
			return fmt.Errorf("download %d out of range", i)
		}
		m.SelectServer(d.Proc, d.Object, d.Server)
	}
	return m.Validate()
}

// verify answers a verify request as the daemon's worker does.
func (a *arena) verify(ref serve.CorpusRef, spec *serve.MappingSpec, tr *tracer, opID, parent int) (stream.Report, error) {
	sp := tr.begin("instance.generate", opID, parent)
	inst := a.instance(ref)
	tr.end(sp)
	sp = tr.begin("mapping.rebuild", opID, parent)
	err := rebuild(&a.vmap, inst, spec)
	tr.end(sp)
	if err != nil {
		return stream.Report{}, err
	}
	sp = tr.begin("stream.simulate", opID, parent)
	rep, err := a.runner.Simulate(&a.vmap, stream.Options{})
	tr.end(sp)
	return rep, err
}
