package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/churn"
	"repro/internal/coord"
)

// The traced run replays every timed op serially in-process, through
// the public calls the daemon makes for it, on warmed arenas. Each
// op's replay is a "replay" root span carrying the op's id, with one
// child span per layer call; the HTTP spans of the same op come from
// the timed phase. serve.overhead_ms is the per-op residual: HTTP time
// minus replayed layer time. It covers transport, JSON decode, queue
// wait and render, all of which the replay skips.

// replaySolve replays solve-open's ops.
func replaySolve(p *plan, skip []bool, tr *tracer) {
	a := newArena()
	for i := range p.Ops {
		if skip[i] {
			continue
		}
		root := tr.begin("replay", i, -1)
		a.solve(p.Solve.Inputs[p.Ops[i].Key], tr, i, root)
		tr.end(root)
	}
}

// replayVerify replays verify-closed's ops.
func replayVerify(p *plan, skip []bool, tr *tracer) {
	a := newArena()
	for i := range p.Ops {
		if skip[i] {
			continue
		}
		k := p.Ops[i].Key
		root := tr.begin("replay", i, -1)
		_, _ = a.verify(p.Verify.Inputs[k], &p.Verify.Specs[k], tr, i, root)
		tr.end(root)
	}
}

// replayChurn replays churn-sessions' sessions, each on a fresh repair
// engine as the daemon creates one per session, and returns the mean
// step time of the same events under PolicyResolve, the yardstick that
// local repair is meant to beat.
func replayChurn(p *plan, skip []bool, tr *tracer) (resolveStepMS float64) {
	var eng *churn.Engine
	for i := range p.Ops {
		o := &p.Ops[i]
		if skip[i] {
			continue
		}
		root := tr.begin("replay", i, -1)
		switch o.Kind {
		case "create":
			sp := tr.begin("churn.create", i, root)
			seed := p.Churn.Seeds[o.Key]
			sc := churn.NewScenario(churnScenarioConfig(0), seed)
			eng = churn.NewEngine(churn.Options{Policy: churn.PolicyRepair, Seed: seed})
			err := eng.Start(sc)
			tr.end(sp)
			if err != nil {
				eng = nil
			}
		case "event":
			if eng == nil {
				break
			}
			start := time.Now()
			er, _ := eng.Step(context.Background(), p.Churn.Events[o.Key][o.Event])
			tr.add("churn.step."+er.Outcome.String(), i, root, start, time.Now())
		}
		tr.end(root)
	}

	var total time.Duration
	var n int
	for _, key := range distinctKeys(p.Ops) {
		seed := p.Churn.Seeds[key]
		sc := churn.NewScenario(churnScenarioConfig(0), seed)
		e := churn.NewEngine(churn.Options{Policy: churn.PolicyResolve, Seed: seed})
		if e.Start(sc) != nil {
			continue
		}
		for _, ev := range p.Churn.Events[key] {
			t := time.Now()
			_, _ = e.Step(context.Background(), ev)
			total += time.Since(t)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / 1e6 / float64(n)
}

// replaySweep replays sweep-durable's coordinator work without HTTP: a
// durable coordinator opened on a fresh state dir receives the same
// jobs and, for each shard, the claim and the cells the worker sent.
func replaySweep(p *plan, jobIDs []string, srecs []shardRec, dir string, tr *tracer) error {
	c, err := coord.Open(coord.Config{StateDir: filepath.Join(dir, "replay-state")})
	if err != nil {
		return err
	}
	defer c.Close()
	type key struct {
		job   string
		shard int
	}
	byShard := map[key]int{}
	for i := range srecs {
		byShard[key{srecs[i].Job, srecs[i].Shard}] = i
	}
	for j, b := range p.Sweep.Jobs {
		id, err := c.Submit(coord.SweepJob{Figure: sweepFigure, Seeds: sweepSeeds,
			BaseSeed: p.Sweep.BaseSeeds[b], Shards: sweepShards})
		if err != nil {
			return err
		}
		for {
			t := time.Now()
			lease, err := c.Claim(id, "replay")
			claimEnd := time.Now()
			if errors.Is(err, coord.ErrJobDone) {
				break
			}
			if err != nil {
				return fmt.Errorf("replay claim: %w", err)
			}
			i, ok := byShard[key{jobIDs[j], lease.Shard}]
			if !ok {
				return fmt.Errorf("replay: no timed op completed shard %d of job %s", lease.Shard, jobIDs[j])
			}
			root := tr.add("replay", i, -1, t, t)
			tr.add("coord.claim_inproc", i, root, t, claimEnd)
			start := time.Now()
			err = c.Complete(id, lease.Shard, lease.Token, "replay", srecs[i].Cells)
			end := time.Now()
			tr.add("coord.complete_inproc", i, root, start, end)
			tr.spans[root].End = int64(end.Sub(tr.epoch))
			if err != nil {
				return fmt.Errorf("replay complete: %w", err)
			}
		}
	}
	return nil
}
