package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/serve"
)

// checker collects answer-check failures. A failed check marks its op
// failed, exactly like a non-2xx answer or a transport error.
type checker struct {
	failed []bool
	msgs   []string
}

func newChecker(n int) *checker { return &checker{failed: make([]bool, n)} }

func (c *checker) fail(i int, format string, args ...any) {
	if !c.failed[i] {
		c.failed[i] = true
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, fmt.Sprintf("op %d: ", i)+fmt.Sprintf(format, args...))
		}
	}
}

// transport marks ops whose request failed outright.
func (c *checker) transport(recs []rec) {
	for i := range recs {
		if !recs[i].ok() {
			c.fail(i, "%s", recs[i].Err)
		}
	}
}

func (c *checker) count() int {
	n := 0
	for _, f := range c.failed {
		if f {
			n++
		}
	}
	return n
}

// distinctKeys returns the distinct Keys of ops, ascending.
func distinctKeys(ops []op) []int {
	seen := map[int]bool{}
	var keys []int
	for i := range ops {
		if !seen[ops[i].Key] {
			seen[ops[i].Key] = true
			keys = append(keys, ops[i].Key)
		}
	}
	sort.Ints(keys)
	return keys
}

// eachKey calls fn(worker, key) for every key on clientCount()
// goroutines and returns when all calls have; fn may use per-worker
// state and may write only to slots of its own key.
func eachKey(keys []int, fn func(worker, key int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	n := clientCount()
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				fn(w, keys[i])
			}
		}()
	}
	wg.Wait()
}

// newArenas returns one arena per checking goroutine.
func newArenas() []*arena {
	as := make([]*arena, clientCount())
	for i := range as {
		as[i] = newArena()
	}
	return as
}

// solveFacts are the deterministic facts of solve-open's answers.
type solveFacts struct {
	meanCost    float64
	rejectShare float64
	winShare    []float64 // per portfolio heuristic, over feasible answers
}

// checkSolve checks every solve answer: the best cost must equal the
// cheapest in-process heuristics outcome, every outcome must match its
// in-process counterpart, and the returned mapping must rebuild through
// mapping's public API and pass Validate at the reported cost. Answers
// to equal inputs must be byte-identical, so each distinct input is
// solved and rebuilt once.
func checkSolve(p *plan, recs []rec, c *checker) solveFacts {
	as := newArenas()
	expect := make([]solveAnswer, len(p.Solve.Inputs))
	eachKey(distinctKeys(p.Ops[:len(recs)]), func(w, key int) {
		expect[key] = as[w].solve(p.Solve.Inputs[key], nil, 0, -1)
	})
	var m mapping.Mapping
	firstBody := map[int][]byte{}
	var f solveFacts
	f.winShare = make([]float64, len(portfolio))
	var costSum float64
	var feasible, rejected, answered int
	for i := range recs {
		if c.failed[i] {
			continue
		}
		key := p.Ops[i].Key
		body := recs[i].Body
		want := expect[key]
		if prev, verified := firstBody[key]; verified {
			if !bytes.Equal(prev, body) {
				c.fail(i, "answer differs from an earlier answer to the same request")
				continue
			}
		} else {
			var resp serve.SolveResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				c.fail(i, "decoding answer: %v", err)
				continue
			}
			if err := compareSolve(&want, &resp, as[0], &m, p.Solve.Inputs[key]); err != nil {
				c.fail(i, "%v", err)
				continue
			}
		}
		firstBody[key] = body
		answered++
		if want.Rejected {
			rejected++
		}
		if want.Feasible {
			feasible++
			costSum += want.Costs[want.Best]
			f.winShare[want.Best]++
		}
	}
	if feasible > 0 {
		f.meanCost = costSum / float64(feasible)
		for i := range f.winShare {
			f.winShare[i] /= float64(feasible)
		}
	}
	if answered > 0 {
		f.rejectShare = float64(rejected) / float64(answered)
	}
	return f
}

// compareSolve checks one decoded answer against the in-process one and
// rebuilds and validates the answer's mapping.
func compareSolve(want *solveAnswer, got *serve.SolveResponse, a *arena, m *mapping.Mapping, in solveInput) error {
	if got.Feasible != want.Feasible {
		return fmt.Errorf("feasible=%v, in-process %v", got.Feasible, want.Feasible)
	}
	if len(got.Outcomes) != len(portfolio) {
		return fmt.Errorf("%d outcomes, want %d", len(got.Outcomes), len(portfolio))
	}
	for i, o := range got.Outcomes {
		if o.Heuristic != portfolio[i].Name() || (o.Error == "") != want.OK[i] || (want.OK[i] && o.Cost != want.Costs[i]) {
			return fmt.Errorf("outcome %d (%s cost %v err %q) differs from in-process (ok %v cost %v)",
				i, o.Heuristic, o.Cost, o.Error, want.OK[i], want.Costs[i])
		}
	}
	if !want.Feasible {
		if got.Best != nil {
			return fmt.Errorf("infeasible answer carries a best mapping")
		}
		return nil
	}
	if got.Best == nil || got.Best.Cost != want.Costs[want.Best] || got.Best.Heuristic != portfolio[want.Best].Name() {
		return fmt.Errorf("best %+v, in-process best %s at cost %v", got.Best, portfolio[want.Best].Name(), want.Costs[want.Best])
	}
	inst := a.instance(in.Ref)
	if err := rebuild(m, inst, &got.Best.Mapping); err != nil {
		return fmt.Errorf("answer mapping does not rebuild: %v", err)
	}
	if cost := m.Cost(); cost != got.Best.Cost {
		return fmt.Errorf("rebuilt mapping costs %v, answer says %v", cost, got.Best.Cost)
	}
	return nil
}

// verifyFacts are the deterministic facts of verify-closed's answers.
type verifyFacts struct {
	meanCost    float64
	eventsPerOp float64
}

// checkVerify checks every verify answer against an in-process
// stream.Runner run of the same mapping: throughput, completed results
// and simulator events must be equal (simulated time is virtual).
func checkVerify(p *plan, recs []rec, c *checker) verifyFacts {
	as := newArenas()
	want := make([]serve.VerifyResponse, len(p.Verify.Inputs))
	errs := make([]error, len(p.Verify.Inputs))
	eachKey(distinctKeys(p.Ops[:len(recs)]), func(w, key int) {
		rep, err := as[w].verify(p.Verify.Inputs[key], &p.Verify.Specs[key], nil, 0, -1)
		want[key] = serve.VerifyResponse{Throughput: rep.Throughput, Completed: rep.Completed, Events: rep.Events}
		errs[key] = err
	})
	var f verifyFacts
	var costSum float64
	var events int64
	var n int
	for i := range recs {
		if c.failed[i] {
			continue
		}
		key := p.Ops[i].Key
		if errs[key] != nil {
			c.fail(i, "in-process verify: %v", errs[key])
			continue
		}
		var got serve.VerifyResponse
		if err := json.Unmarshal(recs[i].Body, &got); err != nil {
			c.fail(i, "decoding answer: %v", err)
			continue
		}
		w := want[key]
		if got.Throughput != w.Throughput || got.Completed != w.Completed || got.Events != w.Events {
			c.fail(i, "verify answer (%v, %d, %d) differs from in-process (%v, %d, %d)",
				got.Throughput, got.Completed, got.Events, w.Throughput, w.Completed, w.Events)
			continue
		}
		n++
		costSum += p.Verify.Costs[key]
		events += got.Events
	}
	if n > 0 {
		f.meanCost = costSum / float64(n)
		f.eventsPerOp = float64(events) / float64(n)
	}
	return f
}

// churnFacts are the deterministic facts of churn-sessions' answers.
type churnFacts struct {
	events                      int
	meanCost                    float64
	moved                       int
	repaired, resolved, rejects int
}

// expectedChurn replays scenario key in-process: a fresh repair engine
// on the same seed answers the same events, as the daemon's session
// does.
func expectedChurn(p *plan, key int) (float64, []churn.EventResult, error) {
	seed := p.Churn.Seeds[key]
	sc := churn.NewScenario(churnScenarioConfig(churnSessionEvents), seed)
	eng := churn.NewEngine(churn.Options{Policy: churn.PolicyRepair, Seed: seed})
	if err := eng.Start(sc); err != nil {
		return 0, nil, err
	}
	initial := eng.Cost()
	out := make([]churn.EventResult, 0, len(sc.Events))
	for _, ev := range sc.Events {
		er, err := eng.Step(context.Background(), ev)
		if err != nil {
			return 0, nil, err
		}
		out = append(out, er)
	}
	return initial, out, nil
}

// checkChurn checks every session answer: the create's initial cost,
// and each event's outcome, cost and moved count, against a same-seed
// in-process churn.Engine replay.
func checkChurn(p *plan, recs []rec, c *checker) churnFacts {
	type exp struct {
		initial float64
		events  []churn.EventResult
		err     error
	}
	want := make([]exp, len(p.Churn.Seeds))
	eachKey(distinctKeys(p.Ops[:len(recs)]), func(_, key int) {
		e := &want[key]
		e.initial, e.events, e.err = expectedChurn(p, key)
	})
	var f churnFacts
	var costSum float64
	for i := range recs {
		o := &p.Ops[i]
		if c.failed[i] || o.Kind == "delete" {
			continue
		}
		e := &want[o.Key]
		if e.err != nil {
			c.fail(i, "in-process replay: %v", e.err)
			continue
		}
		if o.Kind == "create" {
			var st serve.ScenarioStatus
			if err := json.Unmarshal(recs[i].Body, &st); err != nil || st.Cost != e.initial {
				c.fail(i, "create answer cost %v (err %v), in-process %v", st.Cost, err, e.initial)
			}
			continue
		}
		var got serve.ScenarioEventResult
		if err := json.Unmarshal(recs[i].Body, &got); err != nil {
			c.fail(i, "decoding answer: %v", err)
			continue
		}
		w := e.events[o.Event]
		if got.Outcome != w.Outcome.String() || got.Cost != w.Cost || got.Moved != w.Moved {
			c.fail(i, "event %d answer (%s, %v, %d) differs from in-process (%s, %v, %d)",
				o.Event, got.Outcome, got.Cost, got.Moved, w.Outcome, w.Cost, w.Moved)
			continue
		}
		f.events++
		costSum += got.Cost
		f.moved += got.Moved
		switch w.Outcome {
		case churn.Repaired:
			f.repaired++
		case churn.Resolved:
			f.resolved++
		default:
			f.rejects++
		}
	}
	if f.events > 0 {
		f.meanCost = costSum / float64(f.events)
	}
	return f
}

// checkSweep checks each job's merged result: it must be byte-identical
// to an in-process experiments.BuildFigure of the same figure and seeds.
// It returns the number of jobs that failed.
func checkSweep(ctx context.Context, p *plan, results []string, errs []error) (int, []string) {
	want := map[int]string{}
	failed := 0
	var msgs []string
	for j, b := range p.Sweep.Jobs {
		if errs[j] == nil {
			if _, ok := want[b]; !ok {
				fig, err := experiments.BuildFigure(ctx, sweepFigure,
					experiments.Config{Seeds: sweepSeeds, BaseSeed: p.Sweep.BaseSeeds[b]})
				if err != nil {
					errs[j] = err
				} else {
					want[b] = fig.Dat()
				}
			}
		}
		if errs[j] == nil && results[j] != want[b] {
			errs[j] = fmt.Errorf("merged result differs from BuildFigure (%d vs %d bytes)", len(results[j]), len(want[b]))
		}
		if errs[j] != nil {
			failed++
			msgs = append(msgs, fmt.Sprintf("job %d: %v", j, strings.TrimSpace(errs[j].Error())))
		}
	}
	return failed, msgs
}
