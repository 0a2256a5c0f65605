package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into one layer. Spans of one operation share Op; Parent is the ID of
// the span that caused this one (-1 for a root). Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory; nothing is written until flush,
// so recording costs two clock reads and a slice store. A nil tracer
// records nothing, which is how the untraced runs call the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// add records an already-timed span.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (clipped to the parent, so overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i := range spans {
		s := &spans[i]
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, x := range iv {
			switch {
			case !open:
				curLo, curHi, open = x[0], x[1], true
			case x[0] <= curHi:
				curHi = max(curHi, x[1])
			default:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerRow is one line of the traced run's layer table.
type layerRow struct {
	Name    string
	Count   int
	SelfMS  float64 // summed self time
	TotalMS float64 // summed duration
}

// layerTable sums self and total time per span name, sorted by self
// time descending.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerRow
	for i := range spans {
		j, ok := idx[spans[i].Name]
		if !ok {
			j = len(rows)
			idx[spans[i].Name] = j
			rows = append(rows, layerRow{Name: spans[i].Name})
		}
		rows[j].Count++
		rows[j].SelfMS += float64(self[i]) / 1e6
		rows[j].TotalMS += float64(spans[i].dur()) / 1e6
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].SelfMS > rows[b].SelfMS })
	return rows
}

func formatLayerTable(rows []layerRow, ops int) string {
	var totalSelf float64
	for _, r := range rows {
		totalSelf += r.SelfMS
	}
	out := fmt.Sprintf("%-34s %8s %12s %12s %12s %7s\n", "span", "count", "self ms/op", "total ms/op", "self ms", "share")
	for _, r := range rows {
		out += fmt.Sprintf("%-34s %8d %12.4f %12.4f %12.1f %6.1f%%\n", r.Name, r.Count,
			r.SelfMS/float64(ops), r.TotalMS/float64(ops), r.SelfMS, 100*r.SelfMS/totalSelf)
	}
	return out
}
