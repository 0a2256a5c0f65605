package heuristics_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
)

// TestPortfolioMatchesSolveAll pins the portfolio's winner on the
// canonical corpus cells N in {20, 60, 140} x alpha in {0.9, 1.7},
// seeds 1-3: its name and cost equal core.SolveAll's first outcome (a
// stable cost sort in paper order, i.e. the first minimum), and its
// mapping equals a fresh one-shot solve of the named winner. One
// context serves every cell, so the winner's arena is reused across
// instance sizes and would show any state the swap leaked.
func TestPortfolioMatchesSolveAll(t *testing.T) {
	c := heuristics.NewSolveContext()
	c.SetReuse(true)
	winners := map[string]bool{}
	for _, n := range []int{20, 60, 140} {
		for _, alpha := range []float64{0.9, 1.7} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("N=%d,alpha=%g,seed=%d", n, alpha, seed)
				in := instance.Generate(instance.Config{NumOps: n, Alpha: alpha}, seed)
				opts := heuristics.Options{Seed: seed}
				want := (&core.Solver{Options: opts}).SolveAll(in)[0]
				visited := 0
				got, err := c.Portfolio(context.Background(), in, heuristics.All(), opts,
					func(heuristics.Heuristic, *heuristics.Result, error) bool {
						visited++
						return false
					})
				if visited != len(heuristics.All()) {
					t.Fatalf("%s: visit saw %d outcomes, want %d", name, visited, len(heuristics.All()))
				}
				if want.Err != nil {
					if !errors.Is(err, heuristics.ErrInfeasible) {
						t.Fatalf("%s: SolveAll found nothing feasible, portfolio returned %v", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: portfolio failed: %v (SolveAll best %s)", name, err, want.Name)
				}
				if got.Heuristic != want.Name || got.Cost != want.Result.Cost {
					t.Fatalf("%s: portfolio %s/$%v, SolveAll %s/$%v",
						name, got.Heuristic, got.Cost, want.Name, want.Result.Cost)
				}
				h, err := heuristics.ByName(got.Heuristic)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := heuristics.Solve(in, h, opts)
				if err != nil {
					t.Fatalf("%s: fresh %s solve: %v", name, h.Name(), err)
				}
				if got.Cost != fresh.Cost || got.Procs != fresh.Procs {
					t.Fatalf("%s: winner (%v, %d procs), fresh solve (%v, %d procs)",
						name, got.Cost, got.Procs, fresh.Cost, fresh.Procs)
				}
				if err := sameMapping(got.Mapping, fresh.Mapping); err != nil {
					t.Fatalf("%s: winner mapping differs from a fresh %s solve: %v", name, h.Name(), err)
				}
				winners[got.Heuristic] = true
			}
		}
	}
	// Several distinct winners mean some won with later heuristics still
	// to run, which is what the arena swap has to survive.
	if len(winners) < 2 {
		t.Fatalf("corpus winners %v: want at least two distinct heuristics", winners)
	}
}

// sameMapping compares two solved mappings processor by processor:
// purchased configurations, operator assignment and download servers.
func sameMapping(a, b *mapping.Mapping) error {
	if !slices.Equal(a.Assign, b.Assign) {
		return fmt.Errorf("assignments differ: %v vs %v", a.Assign, b.Assign)
	}
	if len(a.Procs) != len(b.Procs) {
		return fmt.Errorf("%d vs %d processors", len(a.Procs), len(b.Procs))
	}
	for p := range a.Procs {
		if a.Procs[p] != b.Procs[p] {
			return fmt.Errorf("proc %d: %+v vs %+v", p, a.Procs[p], b.Procs[p])
		}
		if !a.Procs[p].Alive {
			continue
		}
		if len(a.DL[p]) != len(b.DL[p]) {
			return fmt.Errorf("proc %d: %d vs %d downloads", p, len(a.DL[p]), len(b.DL[p]))
		}
		for k, l := range a.DL[p] {
			if m, ok := b.DL[p][k]; !ok || m != l {
				return fmt.Errorf("proc %d object %d: server %d vs %d", p, k, l, m)
			}
		}
	}
	return nil
}

// TestPortfolioAllocs pins the steady state: on a warmed context the
// whole six-heuristic portfolio, outcome callback included, allocates
// nothing — the winner is kept by switching arenas, never copied.
func TestPortfolioAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	c := heuristics.NewSolveContext()
	c.SetReuse(true)
	hs := heuristics.All()
	feasible := 0
	visit := func(_ heuristics.Heuristic, _ *heuristics.Result, err error) bool {
		if err == nil {
			feasible++
		}
		return false
	}
	run := func() {
		if _, err := c.Portfolio(context.Background(), in, hs, heuristics.Options{Seed: 1}, visit); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both arenas: which heuristic builds in which arena shifts
	// with the winners, and each arena's per-processor lists grow to the
	// largest solution they have held over a few runs.
	for i := 0; i < 20; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warmed portfolio allocates %.1f allocs/op, want 0", allocs)
	}
	if feasible == 0 {
		t.Fatal("no heuristic was feasible")
	}
}

// TestPortfolioStopAndCancel covers the callback's early stop, the
// per-heuristic context check and the all-infeasible error.
func TestPortfolioStopAndCancel(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 20, Alpha: 0.9}, 1)
	hs := heuristics.All()
	c := heuristics.NewSolveContext()
	c.SetReuse(true)

	var seen []string
	got, err := c.Portfolio(context.Background(), in, hs, heuristics.Options{},
		func(h heuristics.Heuristic, res *heuristics.Result, err error) bool {
			seen = append(seen, h.Name())
			return err == nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || got.Heuristic != seen[len(seen)-1] {
		t.Fatalf("stopped after %v, winner %s: want the first feasible outcome", seen, got.Heuristic)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	if _, err := c.Portfolio(ctx, in, hs, heuristics.Options{},
		func(heuristics.Heuristic, *heuristics.Result, error) bool { calls++; return false },
	); !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("cancelled portfolio: err %v after %d solves, want context.Canceled after 0", err, calls)
	}

	tooHot := instance.Generate(instance.Config{NumOps: 140, Alpha: 2.5}, 1)
	if _, err := c.Portfolio(context.Background(), tooHot, hs, heuristics.Options{}, nil); !errors.Is(err, heuristics.ErrInfeasible) {
		t.Fatalf("infeasible portfolio: err %v, want ErrInfeasible", err)
	}
}
