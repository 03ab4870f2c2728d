package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point. IDs are
// 1-based indices into tracer.spans; Parent 0 is the root. Ref names
// the cell, shard or request the span belongs to.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Ref    string `json:"ref,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning span 0.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, parent int32, ref string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// snapshot returns a copy of the finished spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap (pool workers run
// concurrently), so coverage is the length of their union.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count       int
	Total, Self time.Duration
	durs        []float64 // ms
}

func aggregateSpans(spans []span) map[string]*spanStat {
	self := selfTimes(spans)
	out := map[string]*spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += self[i]
		st.durs = append(st.durs, ms(s.dur()))
	}
	return out
}

// printSpanTable writes the per-name span table: count, p50 duration,
// total and self time.
func printSpanTable(w io.Writer, stats map[string]*spanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-34s %7s %11s %11s %11s\n", "span", "count", "p50_ms", "total_ms", "self_ms")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "  %-34s %7d %11.3f %11.1f %11.1f\n", n, st.Count, quantile(st.durs, 0.5), ms(st.Total), ms(st.Self))
	}
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
