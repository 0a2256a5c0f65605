package main

import (
	"math"
	"sort"
	"time"
)

// The timed phase is cut into consecutive rounds. Every latency metric
// is computed per round and reported as the median over rounds, so a
// burst of load from elsewhere on a shared host that hits one or two
// rounds does not move the result. There are at most maxRounds, and a
// round is planned to hold at least minRoundOps ops, so that its p90
// keeps at least ten samples beyond it.
const (
	maxRounds   = 10
	minRoundOps = 200
)

// roundLength is the sampling interval for a phase of the given length
// and number of timed ops.
func roundLength(seconds, ops int) time.Duration {
	phase := time.Duration(seconds) * time.Second
	return max(phase/maxRounds, phase*minRoundOps/time.Duration(max(ops, 1)))
}

// cpuSample is the daemon's CPU time at one instant of the phase.
type cpuSample struct {
	at  int64 // ns since the phase start
	cpu time.Duration
}

// cpuSampler reads the daemon's CPU time at the start of every round
// until stopped. It sleeps between samples and reads one /proc file
// per sample, so it adds no load worth measuring.
type cpuSampler struct {
	pid     int
	t0      time.Time
	every   time.Duration
	stop    chan struct{}
	done    chan struct{}
	samples []cpuSample
	err     error
}

func startCPUSampler(pid int, t0 time.Time, every time.Duration) *cpuSampler {
	s := &cpuSampler{pid: pid, t0: t0, every: every, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *cpuSampler) sample() {
	if s.err != nil {
		return
	}
	cpu, err := cpuTime(s.pid)
	if err != nil {
		s.err = err
		return
	}
	s.samples = append(s.samples, cpuSample{at: int64(time.Since(s.t0)), cpu: cpu})
}

func (s *cpuSampler) run() {
	defer close(s.done)
	for k := 0; ; k++ {
		t := time.NewTimer(time.Until(s.t0.Add(time.Duration(k) * s.every)))
		select {
		case <-s.stop:
			t.Stop()
			s.sample()
			return
		case <-t.C:
			s.sample()
		}
	}
}

// finish takes a last sample and returns them all.
func (s *cpuSampler) finish() ([]cpuSample, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// roundStat is one round's metrics.
type roundStat struct {
	p50, tail, rate, cpuPerOp float64
}

// roundStats cuts the phase at the CPU samples and computes each round's
// latency percentiles over the timed ops that completed in it (a failed
// op counts as infinitely slow), its OK-op rate and the daemon's CPU per
// OK op. A last round shorter than half the others is dropped.
func roundStats(recs []rec, timed, failed []bool, samples []cpuSample) []roundStat {
	var out []roundStat
	for k := 0; k+1 < len(samples); k++ {
		a, b := samples[k], samples[k+1]
		if k > 0 && k+2 == len(samples) && 2*(b.at-a.at) < samples[1].at-samples[0].at {
			break
		}
		var lats []float64
		ok := 0
		for i := range recs {
			if !timed[i] || recs[i].Done < a.at || recs[i].Done >= b.at {
				continue
			}
			if failed[i] {
				lats = append(lats, math.Inf(1))
				continue
			}
			ok++
			lats = append(lats, recs[i].latencyMS())
		}
		if len(lats) == 0 {
			continue
		}
		sort.Float64s(lats)
		out = append(out, roundStat{
			p50:      quantile(lats, 0.5),
			tail:     quantile(lats, tailQuantile),
			rate:     float64(ok) / (float64(b.at-a.at) / 1e9),
			cpuPerOp: float64((b.cpu - a.cpu).Nanoseconds()) / 1e6 / float64(max(ok, 1)),
		})
	}
	return out
}

// medianOf returns the median of one field over the rounds.
func medianOf(rs []roundStat, field func(roundStat) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = field(r)
	}
	return median(xs)
}
