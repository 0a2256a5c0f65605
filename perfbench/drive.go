package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// rec is the measured outcome of one op. Times are nanoseconds since
// the phase's start. For an open loop Due is the scheduled send time
// and latency is Done-Due, so a stall is charged to every op queued
// behind it; for a closed loop Due equals Sent.
type rec struct {
	Due, Sent, Done int64
	Status          int
	Err             string
	Body            []byte
}

func (r *rec) latencyMS() float64 { return float64(r.Done-r.Due) / 1e6 }

func (r *rec) ok() bool { return r.Err == "" && r.Status >= 200 && r.Status < 300 }

// newHTTPClient returns a client that keeps at most conns connections
// to the daemon open and reuses them.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// do sends one request and reads the whole answer.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// sendFunc issues op i and returns the answer; a closed-loop client
// keeps its own state (a churn session id) in the closure.
type sendFunc func(ctx context.Context, i int) (int, []byte, error)

// runOpen drives ops on their Due schedule, counted from t0, over conns
// connections: one goroutine per connection takes the next op, waits
// until it is due and sends it. The per-op records are preallocated;
// the goroutines only store into their own slots.
func runOpen(ctx context.Context, t0 time.Time, ops []op, conns int, send sendFunc, tr *tracer) []rec {
	recs := make([]rec, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				due := t0.Add(ops[i].Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := &recs[i]
				r.Due = int64(ops[i].Due)
				r.Sent = int64(time.Since(t0))
				status, body, err := send(ctx, i)
				r.Done = int64(time.Since(t0))
				fill(r, status, body, err)
			}
		}()
	}
	wg.Wait()
	spanRecords(tr, recs, t0)
	return recs
}

// runClosed drives each client's ops in order from t0, each sent as soon
// as the client's previous answer arrived.
func runClosed(ctx context.Context, t0 time.Time, ops []op, clients int, send func(client int) sendFunc, tr *tracer) []rec {
	recs := make([]rec, len(ops))
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			s := send(c)
			time.Sleep(time.Until(t0))
			for i := range ops {
				if ops[i].Client != c || ctx.Err() != nil {
					continue
				}
				r := &recs[i]
				r.Sent = int64(time.Since(t0))
				r.Due = r.Sent
				status, body, err := s(ctx, i)
				r.Done = int64(time.Since(t0))
				fill(r, status, body, err)
			}
		}()
	}
	wg.Wait()
	spanRecords(tr, recs, t0)
	return recs
}

func fill(r *rec, status int, body []byte, err error) {
	r.Status, r.Body = status, body
	switch {
	case err != nil:
		r.Err = err.Error()
	case status < 200 || status >= 300:
		r.Err = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	}
}

// spanRecords adds one "http" span per op, from send to answer, after
// the phase: recording them afterwards keeps the traced phase's
// goroutines doing exactly what the untraced phase's do.
func spanRecords(tr *tracer, recs []rec, t0 time.Time) {
	if tr == nil {
		return
	}
	for i := range recs {
		r := &recs[i]
		tr.add("http", i, -1, t0.Add(time.Duration(r.Sent)), t0.Add(time.Duration(r.Done)))
	}
}
