package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makePlan(w, 5, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 5, 2, 2)
		c, _ := makePlan(w, 6, 2, 2)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		jc, _ := json.Marshal(c)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: the same seed gave different op lists", w)
		}
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: different seeds gave the same op list", w)
		}
	}
}

func TestSolveScheduleRateAndMix(t *testing.T) {
	p, err := makePlan(wSolve, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Ops); n != 4*int(solveRate) {
		t.Fatalf("%d ops, want %d", n, 4*int(solveRate))
	}
	if last := p.Ops[len(p.Ops)-1].Due; last != 4*time.Second {
		t.Errorf("last op due at %v, want exactly 4s", last)
	}
	per := make([]int, len(solveClasses))
	for _, o := range p.Ops {
		per[o.Key/solvePoolPerClass]++
	}
	for ci, c := range solveClasses {
		if want := len(p.Ops) * c.Weight / 100; per[ci] != want {
			t.Errorf("class %d has %d ops, want exactly %d", ci, per[ci], want)
		}
	}
}

func TestRoundLength(t *testing.T) {
	if got := roundLength(15, 3750); got != 1500*time.Millisecond {
		t.Errorf("3750 ops in 15 s: rounds of %v, want 1.5s (ten rounds)", got)
	}
	if got := roundLength(15, 1000); got != 3*time.Second {
		t.Errorf("1000 ops in 15 s: rounds of %v, want 3s (200 ops each)", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := exclusiveQuartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	s := sortedCopy(xs)
	if got := quantile(s, 0.5); got != 5.5 {
		t.Errorf("median %v, want 5.5", got)
	}
	if got := quantile(s, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 %v, want 9.1", got)
	}
	if got := quantile(s, 1); got != 10 {
		t.Errorf("p100 %v, want 10", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "a", Start: 90, End: 120}, // runs past root
		{ID: 4, Parent: 2, Name: "c", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// root: 100 - (10..50 = 40) - (90..100 = 10) = 50; b: 30 - 10 = 20.
	want := []int64{50, 20, 20, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self %d, want %d", i, self[i], want[i])
		}
	}
	rows := layerTable(spans)
	for _, r := range rows {
		if r.Name == "a" && (r.Count != 2 || r.SelfMS != 50e-6 || r.TotalMS != 50e-6) {
			t.Errorf("layer a: %+v", r)
		}
	}
}

// A handler that stalls once must show in the latency of every op that
// was due while it stalled, not only in the stalled op's.
func TestOpenLoopChargesAStallToTheOpsBehindIt(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(300 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()

	const every = 5 * time.Millisecond
	ops := make([]op, 120)
	for i := range ops {
		ops[i].Due = time.Duration(i) * every
	}
	send := func(ctx context.Context, i int) (int, []byte, error) {
		return do(ctx, hc, "GET", srv.URL, nil)
	}
	recs := runOpen(context.Background(), time.Now(), ops, 1, send, nil)
	slow := 0
	for i := range recs {
		if !recs[i].ok() {
			t.Fatalf("op %d failed: %s", i, recs[i].Err)
		}
		if recs[i].latencyMS() > 100 {
			slow++
		}
	}
	// Ops due in the 300 ms after the stall began wait for it: about 40
	// of them finish more than 100 ms after they were due.
	if slow < 30 {
		t.Errorf("%d ops charged more than 100 ms; the stall was not charged to the ops behind it", slow)
	}
}

// solveBody renders the daemon's answer to a solve input from the
// in-process solve, as internal/serve does.
func solveBody(t *testing.T, in solveInput) ([]byte, *serve.SolveResponse) {
	ans := newArena().solve(in, nil, 0, -1)
	resp := &serve.SolveResponse{Feasible: ans.Feasible}
	for i, h := range portfolio {
		o := serve.OutcomeJSON{Heuristic: h.Name(), Cost: ans.Costs[i]}
		if !ans.OK[i] {
			o = serve.OutcomeJSON{Heuristic: h.Name(), Error: "infeasible"}
		}
		resp.Outcomes = append(resp.Outcomes, o)
	}
	if ans.Feasible {
		resp.Best = &serve.BestJSON{Heuristic: portfolio[ans.Best].Name(), Cost: ans.Costs[ans.Best],
			Procs: len(ans.Spec.Procs), Mapping: ans.Spec}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp
}

func TestChecksRejectTamperedAnswers(t *testing.T) {
	full, err := makePlan(wSolve, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := 2 * solvePoolPerClass // an N=20 alpha=0.9 ref
	p := &plan{Solve: full.Solve, Ops: []op{{Kind: "solve", Key: key}}}
	body, resp := solveBody(t, p.Solve.Inputs[key])
	if !resp.Feasible {
		t.Fatal("test input is infeasible")
	}
	solveCase := func(mutate func(r *serve.SolveResponse)) bool {
		var r serve.SolveResponse
		_ = json.Unmarshal(body, &r)
		mutate(&r)
		b, _ := json.Marshal(&r)
		c := newChecker(1)
		checkSolve(p, []rec{{Status: 200, Body: b}}, c)
		return c.count() == 1
	}
	if solveCase(func(*serve.SolveResponse) {}) {
		t.Fatal("an untampered solve answer failed its check")
	}
	if !solveCase(func(r *serve.SolveResponse) { r.Best.Cost++ }) {
		t.Error("a raised best cost passed")
	}
	if !solveCase(func(r *serve.SolveResponse) { r.Best.Mapping.Assign[0] = len(r.Best.Mapping.Procs) }) {
		t.Error("an operator on a processor that does not exist passed")
	}
	if !solveCase(func(r *serve.SolveResponse) { r.Best.Mapping.Downloads = r.Best.Mapping.Downloads[1:] }) {
		t.Error("a mapping missing a download passed")
	}

	vp, err := makePlan(wVerify, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	vp.Ops = vp.Ops[:1]
	rep, err := newArena().verify(vp.Verify.Inputs[vp.Ops[0].Key], &vp.Verify.Specs[vp.Ops[0].Key], nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	verifyCase := func(events int64) bool {
		b, _ := json.Marshal(serve.VerifyResponse{Throughput: rep.Throughput, Completed: rep.Completed, Events: events})
		c := newChecker(1)
		checkVerify(vp, []rec{{Status: 200, Body: b}}, c)
		return c.count() == 1
	}
	if verifyCase(rep.Events) || !verifyCase(rep.Events+1) {
		t.Error("verify check: untampered answer failed or tampered event count passed")
	}

	cp, err := makePlan(wChurn, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := op{Kind: "event", Key: 3, Event: 0}
	cp.Ops = []op{ev}
	_, want, err := expectedChurn(cp, ev.Key)
	if err != nil {
		t.Fatal(err)
	}
	churnCase := func(moved int) bool {
		b, _ := json.Marshal(serve.ScenarioEventResult{Outcome: want[0].Outcome.String(), Cost: want[0].Cost, Moved: moved})
		c := newChecker(1)
		checkChurn(cp, []rec{{Status: 200, Body: b}}, c)
		return c.count() == 1
	}
	if churnCase(want[0].Moved) || !churnCase(want[0].Moved+1) {
		t.Error("churn check: untampered answer failed or tampered moved count passed")
	}

	sp := &plan{Sweep: &sweepPlan{BaseSeeds: []int64{4}, Jobs: []int{0}}}
	fig, err := experiments.BuildFigure(context.Background(), sweepFigure, experiments.Config{Seeds: sweepSeeds, BaseSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := checkSweep(context.Background(), sp, []string{fig.Dat()}, []error{nil}); n != 0 {
		t.Error("an untampered sweep result failed its check")
	}
	if n, _ := checkSweep(context.Background(), sp, []string{fig.Dat() + " "}, []error{nil}); n != 1 {
		t.Error("a tampered sweep result passed")
	}
}

// BENCHMARK.json must list exactly the per-layer metrics the traced
// run reports.
func TestBenchmarkJSONListsEveryPerLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if doc.PerLayer[i].Name != d.name || doc.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), traced run reports %s (%s)", i,
				doc.PerLayer[i].Name, doc.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}
