package refine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/rng"
)

// Options tunes Refine. The zero value uses the defaults.
type Options struct {
	// Seed drives every random choice (candidate sub-streams, annealing
	// proposals and acceptances). Same seed, same result, regardless of
	// how many sweep workers run concurrently.
	Seed int64
	// SAIters bounds the simulated-annealing move budget;
	// 0 means 1200 + 60 per operator.
	SAIters int
	// LNSRounds bounds the large-neighborhood destroy/repair rounds run
	// after annealing; 0 means 8.
	LNSRounds int
	// Budget bounds the wall clock of the refinement loops (anytime
	// behaviour: at the deadline the best incumbent found so far is
	// returned, never worse than the constructive seed). The search
	// trajectory is a pure function of the seed and the number of steps
	// executed — the budget only decides how many steps that is — so two
	// runs that execute the same step count return identical results.
	// 0 means no deadline.
	Budget time.Duration
}

// Refine runs the full solve pipeline with the Refined heuristic:
// constructive seeding from the best of the paper's six heuristics,
// simulated annealing plus large-neighborhood search over the move
// journal, then server selection, downgrade and validation. The result
// never costs more than the best constructive solution, and the search
// stops early when the seed already matches the analytic lower bound.
func Refine(in *instance.Instance, opts Options) (*heuristics.Result, error) {
	return heuristics.Solve(in,
		Refined{SAIters: opts.SAIters, LNSRounds: opts.LNSRounds, Budget: opts.Budget},
		heuristics.Options{Seed: opts.Seed})
}

// Refined is the refinement layer as a placement Heuristic, so the sweep
// Grid and CLIs can run it by name next to the paper's six. It is
// registered with heuristics.ByName as "Refined" (zero-value options).
type Refined struct {
	SAIters   int           // see Options.SAIters
	LNSRounds int           // see Options.LNSRounds
	Budget    time.Duration // see Options.Budget
}

func init() { heuristics.Register(Refined{}) }

// Name implements heuristics.Heuristic.
func (Refined) Name() string { return "Refined" }

// refScratch is the pooled per-call state: a candidate-evaluation arena,
// the best-state snapshot arena and the index/position buffers.
type refScratch struct {
	sm    mapping.Mapping // candidate construction arena
	best  mapping.Mapping // best selection-feasible state found
	seeds []int64         // per-candidate placement sub-seeds
	costs []float64       // per-candidate seed cost (downgraded)
	order []int           // candidate indices by cost
	buPos []int           // operator -> bottom-up position
	bu    []int           // BottomUpInto buffers
	stack []int
	alive []int // alive-processor gather
	ops   []int // subtree / source-processor gather
	srcs  []int
}

var scratchPool = sync.Pool{New: func() any { return &refScratch{} }}

// Place implements heuristics.Heuristic: it fills m with the refined
// placement (server selection stays with the pipeline). The seed is the
// cheapest constructive placement (after a config refit, cost is
// placement-determined) that admits a three-loop server selection; the
// refinement only ever replaces it with cheaper selection-feasible
// states, so the refined cost never exceeds the best constructive cost.
func (h Refined) Place(pc *heuristics.PlaceContext, m *mapping.Mapping, r *rand.Rand) error {
	in := m.Inst
	sc := scratchPool.Get().(*refScratch)
	defer scratchPool.Put(sc)

	// The budget clock starts before seeding so the whole call is
	// bounded; a tiny budget still finishes the constructive seed (the
	// validity and never-worse guarantees need one) and only cuts the
	// refinement loops short.
	var deadline time.Time
	if h.Budget > 0 {
		deadline = time.Now().Add(h.Budget)
	}

	// This seeding does not use heuristics.Portfolio: it ranks bare
	// placements before server selection, on per-candidate streams drawn
	// from r, rather than keeping the cheapest finished solve.
	cands := heuristics.All()
	// Per-candidate placement streams, drawn up front in plot order so
	// evaluation order cannot perturb them.
	sc.seeds = sc.seeds[:0]
	for range cands {
		sc.seeds = append(sc.seeds, r.Int63())
	}

	// Pass 1: the downgraded cost of every constructive placement. Server
	// selection never changes the cost (NICLoad is fully determined by the
	// placement), so this is each candidate's final pipeline cost.
	sm := &sc.sm
	sm.SetJournal(false)
	sc.costs = sc.costs[:0]
	for i, ch := range cands {
		cost := math.Inf(1)
		if buildCandidate(pc, sm, in, ch, sc.seeds[i]) {
			cost = sm.Cost()
		}
		sc.costs = append(sc.costs, cost)
	}
	sc.order = sc.order[:0]
	for i := range cands {
		sc.order = append(sc.order, i)
	}
	slices.SortStableFunc(sc.order, func(a, b int) int {
		if sc.costs[a] < sc.costs[b] {
			return -1
		}
		if sc.costs[a] > sc.costs[b] {
			return 1
		}
		return a - b
	})

	// Pass 2: cheapest candidate whose placement admits a server
	// selection becomes the seed.
	winner := -1
	for _, i := range sc.order {
		if math.IsInf(sc.costs[i], 1) {
			break
		}
		buildCandidate(pc, sm, in, cands[i], sc.seeds[i])
		if heuristics.SelectServersThreeLoop(sm) == nil {
			winner = i
			break
		}
	}
	if winner < 0 {
		return fmt.Errorf("refine: no constructive seed admits a server selection: %w", heuristics.ErrInfeasible)
	}
	sm.ClearDownloads() // the pipeline re-selects on the final placement
	wasJournal := m.Journaling()
	m.CopyFrom(sm)

	lb := bounds.CostLowerBound(in)
	if m.Cost() <= lb+mapping.Eps {
		return nil // the seed is provably optimal; nothing to refine
	}

	sc.bu, sc.stack = in.Tree.BottomUpInto(sc.bu, sc.stack)
	sc.buPos = grow(sc.buPos, in.Tree.NumOps())
	for pos, op := range sc.bu {
		sc.buPos[op] = pos
	}

	m.SetJournal(true)
	rf := refiner{m: m, in: in, r: r, sc: sc, lb: lb, deadline: deadline,
		cat: in.Platform.Catalog, most: in.Platform.Catalog.MostExpensive()}
	rf.unit = rf.cat.Cost(platform.Config{}) // cheapest purchase: the move-cost scale
	rf.bestCost = m.Cost()
	sc.best.SetJournal(false)
	sc.best.CopyFrom(m)

	rf.run(h.SAIters, h.LNSRounds)
	m.CopyFrom(&sc.best)
	m.SetJournal(wasJournal)
	return nil
}

// run drives the annealing and LNS loops with their defaulted budgets;
// the refiner must be fully initialized and sc.best seeded.
func (rf *refiner) run(iters, rounds int) {
	if iters <= 0 {
		iters = 1200 + 60*rf.in.Tree.NumOps()
	}
	if rounds <= 0 {
		rounds = 8
	}
	rf.anneal(iters)
	for i := 0; i < rounds && rf.bestCost > rf.lb+mapping.Eps && !rf.stopNow(); i++ {
		rf.lnsRound()
	}
}

// Improve refines an existing complete placement of m in place: the
// current placement is the seed, and the annealing + LNS loops only ever
// replace it with cheaper selection-feasible states, so the result never
// costs more than the state passed in. It is the churn repair engine's
// local-search pass. The mapping must be complete; its placement must
// admit a three-loop server selection (else ErrInfeasible wraps the
// error and m is unchanged). Server selection is re-run on the refined
// placement before returning, so m is valid as-is; on heterogeneous
// catalogs callers wanting cost-minimal configurations additionally run
// Downgrade, as the solve pipeline does.
//
// r drives every random choice; a nil r derives one from opts.Seed.
// Cancelling ctx stops the search at the next step boundary and returns
// the incumbent in m together with the context error, so callers can
// distinguish "refined" from "cut short" while still holding a valid
// never-worse state.
func Improve(ctx context.Context, m *mapping.Mapping, r *rand.Rand, opts Options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var deadline time.Time
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	in := m.Inst
	if !m.Complete() {
		return fmt.Errorf("refine: Improve needs a complete placement")
	}
	if r == nil {
		r = rng.New(opts.Seed)
	}
	sc := scratchPool.Get().(*refScratch)
	defer scratchPool.Put(sc)

	wasJournal := m.Journaling()
	m.SetJournal(false) // discard any caller records; marks do not survive Improve
	m.ClearDownloads()  // selection is re-run on the refined placement
	m.SetJournal(true)

	// Seed feasibility, probed through the journal: the incumbent the
	// anytime contract falls back to must itself admit a selection.
	mark := m.Checkpoint()
	err := heuristics.SelectServersThreeLoop(m)
	m.Rollback(mark)
	if err != nil {
		m.SetJournal(wasJournal)
		return fmt.Errorf("refine: seed placement admits no server selection: %v: %w", err, heuristics.ErrInfeasible)
	}

	lb := bounds.CostLowerBound(in)
	if m.Cost() > lb+mapping.Eps {
		sc.bu, sc.stack = in.Tree.BottomUpInto(sc.bu, sc.stack)
		sc.buPos = grow(sc.buPos, in.Tree.NumOps())
		for pos, op := range sc.bu {
			sc.buPos[op] = pos
		}
		rf := refiner{m: m, in: in, r: r, sc: sc, lb: lb, ctx: ctx, deadline: deadline,
			cat: in.Platform.Catalog, most: in.Platform.Catalog.MostExpensive()}
		rf.unit = rf.cat.Cost(platform.Config{})
		rf.bestCost = m.Cost()
		sc.best.SetJournal(false)
		sc.best.CopyFrom(m)
		rf.run(opts.SAIters, opts.LNSRounds)
		m.CopyFrom(&sc.best)
	}
	// Re-run selection so the caller gets a valid mapping as-is; the
	// installed placement was probed above (or in noteBest), so this
	// cannot fail.
	m.SetJournal(false)
	if err := heuristics.SelectServersThreeLoop(m); err != nil {
		m.SetJournal(wasJournal)
		return fmt.Errorf("refine: refined placement admits no server selection: %v: %w", err, heuristics.ErrInfeasible)
	}
	m.SetJournal(wasJournal)
	return ctx.Err()
}

// PlaceUnassigned greedily places every unassigned operator of m,
// children before parents, each onto the alive processor — or a fresh
// purchase — that minimizes the refitted total cost (the same repair
// operator the LNS rounds use, probed and rolled back through the
// journal, ties to the lowest processor id). Afterwards every alive
// processor is refitted to the cheapest configuration sustaining its
// loads. It is deterministic, requires journaling to be enabled, and
// reports false when some operator fits nowhere — the mapping is then
// left mid-repair and the caller owns rolling back to its checkpoint.
func PlaceUnassigned(m *mapping.Mapping) bool {
	in := m.Inst
	sc := scratchPool.Get().(*refScratch)
	defer scratchPool.Put(sc)
	rf := refiner{m: m, in: in, sc: sc,
		cat: in.Platform.Catalog, most: in.Platform.Catalog.MostExpensive()}
	sc.bu, sc.stack = in.Tree.BottomUpInto(sc.bu, sc.stack)
	for _, op := range sc.bu {
		if m.OpProc(op) != mapping.Unassigned {
			continue
		}
		if !rf.repairOp(op) {
			return false
		}
	}
	for _, p := range rf.aliveInto() {
		rf.refit(p)
	}
	return true
}

// buildCandidate constructs heuristic ch's finished placement on the
// arena: place, sell empty processors, refit every configuration to its
// loads. Reports false when the placement fails.
func buildCandidate(pc *heuristics.PlaceContext, sm *mapping.Mapping, in *instance.Instance, ch heuristics.Heuristic, seed int64) bool {
	sm.Reset(in)
	if ch.Place(pc, sm, rng.New(seed)) != nil || !sm.Complete() {
		return false
	}
	for p := range sm.Procs {
		if sm.Procs[p].Alive && sm.NumOpsOn(p) == 0 {
			sm.Sell(p)
		}
	}
	if heuristics.Downgrade(sm) != nil {
		return false
	}
	return true
}

func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// refiner drives the annealing and destroy/repair loops over one
// journaled mapping.
type refiner struct {
	m        *mapping.Mapping
	in       *instance.Instance
	r        *rand.Rand
	sc       *refScratch
	cat      *platform.Catalog
	most     platform.Config
	lb       float64 // bounds.CostLowerBound: stop when reached
	unit     float64 // cheapest purchase cost: temperature scale
	bestCost float64

	ctx      context.Context // optional cancellation; nil means none
	deadline time.Time       // optional Options.Budget deadline; zero means none
	halted   bool            // latched once either signal fires
}

// stopCheckEvery throttles the annealing loop's clock polls: the budget
// and cancellation signals are sampled once per this many steps, keeping
// the hot loop free of time syscalls.
const stopCheckEvery = 16

// stopNow polls the cancellation and budget signals and latches the
// answer, so callers exit promptly without re-polling.
func (rf *refiner) stopNow() bool {
	if rf.halted {
		return true
	}
	if rf.ctx != nil && rf.ctx.Err() != nil {
		rf.halted = true
	} else if !rf.deadline.IsZero() && !time.Now().Before(rf.deadline) {
		rf.halted = true
	}
	return rf.halted
}

// stopAt is stopNow throttled to every stopCheckEvery-th annealing step.
func (rf *refiner) stopAt(i int) bool {
	if rf.halted {
		return true
	}
	if rf.ctx == nil && rf.deadline.IsZero() {
		return false
	}
	if i%stopCheckEvery != 0 {
		return false
	}
	return rf.stopNow()
}

// anneal runs the simulated-annealing loop: geometric cooling from half
// a purchase to one percent of one, journal rollback on rejection.
func (rf *refiner) anneal(iters int) {
	t0, tEnd := 0.5*rf.unit, 0.01*rf.unit
	decay := math.Pow(tEnd/t0, 1/float64(iters))
	temp := t0
	for i := 0; i < iters && rf.bestCost > rf.lb+mapping.Eps && !rf.stopAt(i); i++ {
		rf.step(temp)
		temp *= decay
	}
}

// step proposes one move and accepts it by the Metropolis rule.
func (rf *refiner) step(temp float64) {
	m := rf.m
	cur := m.Cost()
	mark := m.Checkpoint()
	newCost, ok := rf.propose()
	if !ok {
		m.Rollback(mark)
		return
	}
	delta := newCost - cur
	if delta <= mapping.Eps || rf.r.Float64() < math.Exp(-delta/temp) {
		m.CommitJournal()
		if newCost < rf.bestCost-mapping.Eps {
			rf.noteBest(newCost)
		}
	} else {
		m.Rollback(mark)
	}
}

// propose mutates the mapping by one tentative move and returns the new
// cost. On false the caller rolls the partial move back.
func (rf *refiner) propose() (float64, bool) {
	m, r := rf.m, rf.r
	n := rf.in.Tree.NumOps()
	switch r.Intn(4) {
	case 0: // move one operator onto an existing processor
		op := r.Intn(n)
		alive := rf.aliveInto()
		dst := alive[r.Intn(len(alive))]
		if dst == m.OpProc(op) {
			return 0, false
		}
		return rf.moveOps(dst, rf.oneOp(op))
	case 1: // split one operator out onto a fresh purchase
		op := r.Intn(n)
		if m.NumOpsOn(m.OpProc(op)) <= 1 {
			return 0, false // already alone: a pure relabeling
		}
		return rf.moveOps(m.Buy(rf.most), rf.oneOp(op))
	case 2: // merge one processor into another
		alive := rf.aliveInto()
		if len(alive) < 2 {
			return 0, false
		}
		from := alive[r.Intn(len(alive))]
		to := alive[r.Intn(len(alive))]
		if from == to {
			return 0, false
		}
		m.SetConfig(to, rf.most)
		if !m.MoveAll(from, to) {
			return 0, false
		}
		rf.refit(to)
		return m.Cost(), true
	default: // move a whole subtree onto an existing processor
		ops := rf.subtreeInto(r.Intn(n))
		alive := rf.aliveInto()
		dst := alive[r.Intn(len(alive))]
		return rf.moveOps(dst, ops)
	}
}

// oneOp returns the single-element operator list in reusable scratch.
func (rf *refiner) oneOp(op int) []int {
	rf.sc.ops = append(rf.sc.ops[:0], op)
	return rf.sc.ops
}

// moveOps moves ops onto dst (upgraded for the attempt), sells emptied
// source processors and refits every touched configuration.
func (rf *refiner) moveOps(dst int, ops []int) (float64, bool) {
	m := rf.m
	srcs := rf.sc.srcs[:0]
	for _, op := range ops {
		p := m.OpProc(op)
		if p == dst || p == mapping.Unassigned {
			continue
		}
		if !slices.Contains(srcs, p) {
			srcs = append(srcs, p)
		}
	}
	rf.sc.srcs = srcs
	if len(srcs) == 0 {
		return 0, false // nothing would change
	}
	m.SetConfig(dst, rf.most)
	if !m.TryPlace(dst, ops...) {
		return 0, false
	}
	for _, p := range srcs {
		if m.NumOpsOn(p) == 0 {
			m.Sell(p)
		} else {
			rf.refit(p)
		}
	}
	rf.refit(dst)
	return m.Cost(), true
}

// refit swaps p onto the cheapest configuration sustaining its current
// loads (never an upgrade: the current configuration fits by construction).
func (rf *refiner) refit(p int) {
	cfg, ok := rf.cat.CheapestFitting(rf.m.ComputeLoad(p), rf.m.NICLoad(p))
	if ok && rf.cat.Cost(cfg) <= rf.cat.Cost(rf.m.Procs[p].Config) {
		rf.m.SetConfig(p, cfg)
	}
}

// noteBest records the current state as the best found so far — if its
// placement admits a server selection (probed through the journal, so
// the mapping is left untouched).
func (rf *refiner) noteBest(cost float64) {
	m := rf.m
	mark := m.Checkpoint()
	err := heuristics.SelectServersThreeLoop(m)
	m.Rollback(mark)
	if err != nil {
		return
	}
	rf.bestCost = cost
	rf.sc.best.CopyFrom(m)
}

// aliveInto gathers the alive processor ids into reusable scratch.
func (rf *refiner) aliveInto() []int {
	rf.sc.alive = rf.sc.alive[:0]
	for p := range rf.m.Procs {
		if rf.m.Procs[p].Alive {
			rf.sc.alive = append(rf.sc.alive, p)
		}
	}
	return rf.sc.alive
}

// subtreeInto gathers op and its operator descendants into scratch.
func (rf *refiner) subtreeInto(root int) []int {
	sc := rf.sc
	sc.ops = sc.ops[:0]
	sc.stack = append(sc.stack[:0], root)
	for len(sc.stack) > 0 {
		op := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		sc.ops = append(sc.ops, op)
		sc.stack = append(sc.stack, rf.in.Tree.Ops[op].ChildOps...)
	}
	return sc.ops
}

// lnsRound destroys a random subtree's placement and repairs it greedily
// (each operator onto the processor minimizing the resulting cost,
// bottom-up), accepting only strict improvements.
func (rf *refiner) lnsRound() {
	m, r := rf.m, rf.r
	n := rf.in.Tree.NumOps()
	cur := m.Cost()
	mark := m.Checkpoint()
	ops := rf.subtreeInto(r.Intn(n))
	if len(ops) > max(3, n/2) {
		m.Rollback(mark) // destroying most of the tree is a re-solve, not a repair
		return
	}
	for _, op := range ops {
		p := m.OpProc(op)
		m.Unplace(op)
		if m.NumOpsOn(p) == 0 {
			m.Sell(p)
		}
	}
	// Repair children before parents so CommLoad sees settled neighbours.
	slices.SortFunc(ops, func(a, b int) int { return rf.sc.buPos[a] - rf.sc.buPos[b] })
	for _, op := range ops {
		if !rf.repairOp(op) {
			m.Rollback(mark)
			return
		}
	}
	for _, p := range rf.aliveInto() {
		rf.refit(p)
	}
	newCost := m.Cost()
	if newCost < cur-mapping.Eps {
		m.CommitJournal()
		if newCost < rf.bestCost-mapping.Eps {
			rf.noteBest(newCost)
		}
	} else {
		m.Rollback(mark)
	}
}

// repairOp places op onto the alive processor (or a fresh purchase)
// minimizing the refitted total cost; candidates are probed and rolled
// back through the journal. Ties resolve to the lowest processor id,
// fresh purchase last, so repair is deterministic.
func (rf *refiner) repairOp(op int) bool {
	m := rf.m
	// Probing mutates the processor set, so iterate over a snapshot.
	cands := append(rf.sc.srcs[:0], rf.aliveInto()...)
	rf.sc.srcs = cands
	bestCost := math.Inf(1)
	bestProc := -1
	fresh := false
	probe := func(dst int) (float64, bool) {
		mark := m.Checkpoint()
		m.SetConfig(dst, rf.most)
		ok := m.TryPlace(dst, op)
		var cost float64
		if ok {
			rf.refit(dst)
			cost = m.Cost()
		}
		m.Rollback(mark)
		return cost, ok
	}
	for _, q := range cands {
		if cost, ok := probe(q); ok && cost < bestCost {
			bestCost, bestProc = cost, q
		}
	}
	{
		mark := m.Checkpoint()
		q := m.Buy(rf.most)
		if m.TryPlace(q, op) {
			rf.refit(q)
			if cost := m.Cost(); cost < bestCost {
				bestCost, fresh = cost, true
			}
		}
		m.Rollback(mark)
	}
	switch {
	case fresh:
		q := m.Buy(rf.most)
		if !m.TryPlace(q, op) {
			return false
		}
		rf.refit(q)
	case bestProc >= 0:
		m.SetConfig(bestProc, rf.most)
		if !m.TryPlace(bestProc, op) {
			return false
		}
		rf.refit(bestProc)
	default:
		return false
	}
	return true
}
