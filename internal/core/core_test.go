package core

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/stream"
)

func TestSolveByName(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 15, Alpha: 1.0}, 1)
	var s Solver
	res, err := s.Solve(in, "Subtree-bottom-up")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(in, "bogus"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestSolveAllSorted(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 25, Alpha: 1.0}, 2)
	var s Solver
	outcomes := s.SolveAll(in)
	if len(outcomes) != 6 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	prev := -1.0
	for _, o := range outcomes {
		if o.Err != nil {
			continue
		}
		if prev >= 0 && o.Result.Cost < prev {
			t.Fatal("outcomes not sorted by cost")
		}
		prev = o.Result.Cost
	}
}

func TestBestBeatsLowerBound(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 20, Alpha: 1.0}, 3)
	var s Solver
	best, err := s.Best(in)
	if err != nil {
		t.Fatal(err)
	}
	if lb := LowerBound(in); best.Cost < lb-1e-6 {
		t.Fatalf("best cost %v below lower bound %v", best.Cost, lb)
	}
}

func TestBestInfeasible(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 40, Alpha: 3}, 1)
	var s Solver
	if _, err := s.Best(in); err == nil || !IsInfeasible(err) {
		t.Fatalf("want infeasible error, got %v", err)
	}
}

func TestVerify(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 12, Alpha: 1.0}, 4)
	var s Solver
	res, err := s.Solve(in, "Comp-Greedy")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(res, stream.Options{Results: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput < in.Rho {
		t.Fatalf("throughput %v below rho", rep.Throughput)
	}
}

// TestSolveAllDeterministicAcrossWorkers asserts the portfolio returns
// identical outcomes at every worker count: same order, names, costs.
func TestSolveAllDeterministicAcrossWorkers(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 30, Alpha: 1.0}, 7)
	serial := Solver{Workers: 1}
	want := serial.SolveAll(in)
	for _, workers := range []int{4, 8} {
		s := Solver{Workers: workers}
		got := s.SolveAll(in)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name {
				t.Fatalf("workers=%d: outcome %d is %s, want %s", workers, i, got[i].Name, want[i].Name)
			}
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d: %s error mismatch: %v vs %v", workers, got[i].Name, got[i].Err, want[i].Err)
			}
			if got[i].Err == nil && got[i].Result.Cost != want[i].Result.Cost {
				t.Fatalf("workers=%d: %s cost %v, want %v", workers, got[i].Name, got[i].Result.Cost, want[i].Result.Cost)
			}
		}
	}
}

func TestBestCtxMatchesBest(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 20, Alpha: 1.0}, 3)
	serial := Solver{Workers: 1}
	want, err := serial.Best(in)
	if err != nil {
		t.Fatal(err)
	}
	parallel := Solver{Workers: 8}
	got, err := parallel.BestCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("parallel best cost %v, want %v", got.Cost, want.Cost)
	}
}

// TestBestDeterministicWinner pins Best's winner, heuristic name
// included, as the first minimum of SolveAll in paper order, at every
// worker count and on repeated runs.
func TestBestDeterministicWinner(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := instance.Generate(instance.Config{NumOps: 40, Alpha: 0.9}, seed)
		want := (&Solver{}).SolveAll(in)[0]
		if want.Err != nil {
			t.Fatalf("seed %d: %v", seed, want.Err)
		}
		for _, workers := range []int{1, 2, 8} {
			for rep := 0; rep < 3; rep++ {
				got, err := (&Solver{Workers: workers}).Best(in)
				if err != nil {
					t.Fatal(err)
				}
				if got.Heuristic != want.Name || got.Cost != want.Result.Cost {
					t.Fatalf("seed %d workers=%d run %d: Best %s/$%v, want %s/$%v", seed, workers, rep,
						got.Heuristic, got.Cost, want.Name, want.Result.Cost)
				}
			}
		}
	}
}

func TestSolveAllCtxCancelled(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 15, Alpha: 1.0}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var s Solver
	for _, o := range s.SolveAllCtx(ctx, in) {
		if o.Err == nil {
			t.Fatalf("%s ran under a cancelled context", o.Name)
		}
	}
	if _, err := s.BestCtx(ctx, in); err == nil {
		t.Fatal("BestCtx succeeded under a cancelled context")
	}
}

func TestSolveBatchMatchesIndividual(t *testing.T) {
	ins := make([]*instance.Instance, 6)
	for i := range ins {
		ins[i] = instance.Generate(instance.Config{NumOps: 15, Alpha: 1.0}, int64(i+1))
	}
	var s Solver
	s.Workers = 4
	results, errs := s.SolveBatch(context.Background(), ins)
	for i, in := range ins {
		serial := Solver{Workers: 1}
		want, wantErr := serial.Best(in)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("instance %d: error mismatch %v vs %v", i, errs[i], wantErr)
		}
		if errs[i] == nil && results[i].Cost != want.Cost {
			t.Fatalf("instance %d: batch cost %v, individual %v", i, results[i].Cost, want.Cost)
		}
	}
}

// TestSolveBatchWithPerSeed asserts a batch with per-item seeds
// reproduces the standalone runs exactly — heuristic name included,
// since the Random heuristic's rng stream depends on the seed.
func TestSolveBatchWithPerSeed(t *testing.T) {
	base := int64(5)
	ins := make([]*instance.Instance, 4)
	for i := range ins {
		ins[i] = instance.Generate(instance.Config{NumOps: 20, Alpha: 1.0}, base+int64(i))
	}
	s := Solver{Workers: 4}
	results, errs := s.SolveBatchWith(context.Background(), ins, func(i int) heuristics.Options {
		return heuristics.Options{Seed: base + int64(i)}
	})
	for i, in := range ins {
		single := Solver{Options: heuristics.Options{Seed: base + int64(i)}, Workers: 1}
		want, wantErr := single.Best(in)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: error mismatch %v vs %v", base+int64(i), errs[i], wantErr)
		}
		if errs[i] == nil && (results[i].Cost != want.Cost || results[i].Heuristic != want.Heuristic) {
			t.Fatalf("seed %d: batch %s/$%v, standalone %s/$%v", base+int64(i),
				results[i].Heuristic, results[i].Cost, want.Heuristic, want.Cost)
		}
	}
}

// TestSolveBatchCancellation cancels a batch mid-flight and asserts it
// returns promptly, marks the skipped items, and leaks no goroutines.
func TestSolveBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ins := make([]*instance.Instance, 64)
	for i := range ins {
		ins[i] = instance.Generate(instance.Config{NumOps: 40, Alpha: 0.9}, int64(i+1))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := Solver{Workers: 4}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, errs := s.SolveBatch(ctx, ins)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("batch took %v after cancellation", elapsed)
	}
	skipped := 0
	for i := range ins {
		if results[i] == nil && errs[i] == nil {
			t.Fatalf("item %d has neither result nor error", i)
		}
		if errs[i] != nil && strings.Contains(errs[i].Error(), "skipped") {
			skipped++
		}
	}
	if skipped == 0 {
		t.Log("cancellation landed after the batch drained; no items skipped")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVerifyBelowTarget covers Verify's error path: a mapping whose
// measured throughput cannot reach an (inflated) QoS target must be
// rejected with the below-target error and still return the report.
func TestVerifyBelowTarget(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 12, Alpha: 1.0}, 4)
	var s Solver
	res, err := s.Solve(in, "Comp-Greedy")
	if err != nil {
		t.Fatal(err)
	}
	// Pin the QoS target safely above what the mapping actually sustains.
	measured, err := stream.Simulate(res.Mapping, stream.Options{Results: 60})
	if err != nil {
		t.Fatal(err)
	}
	in.Rho = 2 * measured.Throughput
	rep, err := Verify(res, stream.Options{Results: 60})
	if err == nil {
		t.Fatal("Verify accepted a mapping far below the target")
	}
	if !strings.Contains(err.Error(), "below target") {
		t.Fatalf("err = %v, want below-target", err)
	}
	if rep == nil {
		t.Fatal("Verify dropped the report on the below-target path")
	}
}

func TestVerifyBatch(t *testing.T) {
	var s Solver
	ins := []*instance.Instance{
		instance.Generate(instance.Config{NumOps: 10, Alpha: 1.0}, 1),
		instance.Generate(instance.Config{NumOps: 12, Alpha: 1.0}, 2),
		instance.Generate(instance.Config{NumOps: 14, Alpha: 1.0}, 3),
	}
	var batch []*heuristics.Result
	for _, in := range ins {
		res, err := s.Best(in)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, res)
	}
	reps, errs := VerifyBatch(context.Background(), batch, stream.Options{Results: 60}, 4)
	for i := range batch {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if reps[i] == nil || reps[i].Throughput <= 0 {
			t.Fatalf("item %d: bad report %+v", i, reps[i])
		}
	}
}

func TestHeuristicNames(t *testing.T) {
	names := Heuristics()
	if len(names) != 6 || names[0] != "Random" || names[3] != "Subtree-bottom-up" {
		t.Fatalf("names = %v", names)
	}
}
