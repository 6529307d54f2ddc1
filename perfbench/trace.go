package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark. Spans of one operation share
// Req; Parent is 0 for the operation's root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends so
// that recording costs an append under a mutex, not I/O. A nil *tracer
// records nothing, which is how untraced runs stay untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// spanRef is an open span; end records it.
type spanRef struct {
	t      *tracer
	id     uint64
	parent uint64
	req    uint64
	name   string
	start  time.Time
}

// root opens an operation's root span under a fresh request ID.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.ids.Add(1)
	return spanRef{t: t, id: id, req: id, name: name, start: time.Now()}
}

// child opens a span caused by s, in the same request.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return spanRef{t: s.t, id: s.t.ids.Add(1), parent: s.id, req: s.req, name: name, start: time.Now()}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	rec := span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(end.Sub(s.t.epoch))}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations, in ms, of the spans with this name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and child time outside the parent's interval not at all.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1) // current merged interval
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanSummary is the per-name roll-up written next to the raw spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := make(map[string]*spanSummary)
	durs := make(map[string][]float64)
	for _, s := range spans {
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += ms(s.dur())
		sum.SelfMS += ms(self[s.ID])
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	out := make([]spanSummary, 0, len(by))
	for name, sum := range by {
		sum.P50MS = median(durs[name])
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeTrace writes the spans as JSON lines to path and the summary
// (environment, per-name roll-up and per-layer metrics) to path+".summary.json".
func writeTrace(path string, spans []span, summary any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding trace summary: %w", err)
	}
	return os.WriteFile(path+".summary.json", append(b, '\n'), 0o644)
}
