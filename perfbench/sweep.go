package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
)

// shardRec is one sweep op's stage boundaries (ns since the phase
// start) and the cells it submitted.
type shardRec struct {
	Job              string
	Shard            int
	ClaimEnd         int64
	ShardEnd         int64
	EncodeEnd        int64
	Cells            []byte
	OKCells, NCells  int
	CostSum          float64
	ClaimStart, Done int64
}

// runSweepWorkers runs `workers` claim loops against the coordinator,
// from t0 until no job has a pending shard: Claim, experiments.RunFigureShard,
// Encode, Complete, each loop on its own goroutine and connection.
// Records are preallocated for maxOps shards.
func runSweepWorkers(ctx context.Context, t0 time.Time, cl *coord.Client, workers, maxOps int) ([]rec, []shardRec, error) {
	recs := make([]rec, maxOps)
	srecs := make([]shardRec, maxOps)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("perfbench-%d", w)
			var buf bytes.Buffer
			time.Sleep(time.Until(t0))
			for ctx.Err() == nil {
				start := int64(time.Since(t0))
				lease, err := cl.Claim(ctx, "", name)
				if errors.Is(err, coord.ErrNoWork) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= maxOps {
					errs[w] = fmt.Errorf("more than %d shards claimed", maxOps)
					return
				}
				r, sr := &recs[i], &srecs[i]
				r.Due, r.Sent, sr.ClaimStart = start, start, start
				sr.ClaimEnd = int64(time.Since(t0))
				if err != nil {
					r.Done, r.Err = sr.ClaimEnd, "claim: "+err.Error()
					continue
				}
				sr.Job, sr.Shard = lease.Job, lease.Shard
				cells, err := experiments.RunFigureShard(ctx, lease.Figure,
					experiments.Config{Seeds: lease.Seeds, BaseSeed: lease.BaseSeed, Workers: 1},
					experiments.Shard{Index: lease.Shard, Count: lease.Shards})
				sr.ShardEnd = int64(time.Since(t0))
				if err == nil {
					buf.Reset()
					err = cells.Encode(&buf)
					for _, u := range cells.Units {
						for _, c := range u {
							sr.NCells++
							if c.Err == nil {
								sr.OKCells++
								sr.CostSum += c.Cost
							}
						}
					}
				}
				sr.EncodeEnd = int64(time.Since(t0))
				if err == nil {
					sr.Cells = bytes.Clone(buf.Bytes())
					err = cl.Complete(ctx, lease, name, sr.Cells)
				}
				r.Done = int64(time.Since(t0))
				sr.Done = r.Done
				r.Status = 200
				if err != nil {
					r.Err = err.Error()
				}
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), maxOps)
	return recs[:n], srecs[:n], errors.Join(errs...)
}

// sweepSpans records each shard op as an "op" span with its stages as
// children: the two coordinator round trips and the two computations
// the worker runs between them.
func sweepSpans(tr *tracer, srecs []shardRec, t0 time.Time) {
	if tr == nil {
		return
	}
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	for i := range srecs {
		s := &srecs[i]
		root := tr.add("op", i, -1, at(s.ClaimStart), at(s.Done))
		tr.add("http.claim", i, root, at(s.ClaimStart), at(s.ClaimEnd))
		tr.add("experiments.shard", i, root, at(s.ClaimEnd), at(s.ShardEnd))
		tr.add("experiments.encode", i, root, at(s.ShardEnd), at(s.EncodeEnd))
		tr.add("http.complete", i, root, at(s.EncodeEnd), at(s.Done))
	}
}
