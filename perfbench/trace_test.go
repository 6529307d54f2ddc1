package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Req: 1, Name: "read", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..50, counted once.
		{ID: 2, Parent: 1, Req: 1, Name: "settle", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Req: 1, Name: "http.search", Start: 30 * ms, End: 50 * ms},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Req: 1, Name: "http.timeline", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 3, Req: 1, Name: "inner", Start: 35 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 50 * time.Millisecond, // 100 - (40 covered by 10..50) - 10 (90..100)
		2: 30 * time.Millisecond, // no children
		3: 10 * time.Millisecond, // 20 - 10
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.root("read")
	c := root.child("settle")
	c.end()
	root.end()
	other := tr.root("ingest")
	other.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["settle"].Parent != byName["read"].ID || byName["settle"].Req != byName["read"].Req {
		t.Errorf("child span not linked to its root: %+v", byName)
	}
	if byName["ingest"].Req == byName["read"].Req {
		t.Error("two operations share a request ID")
	}
	var off *tracer
	s := off.root("read")
	s.child("settle").end()
	s.end()
	if off.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
}
