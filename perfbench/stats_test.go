package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // reversed, so percentile must sort
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	v, ok := percentile(seq(100), 0.5)
	if v != 50 || !ok {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	v, ok = percentile(seq(1000), 0.99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},   // ten samples above rank 990
		{999, 0.99, false},   // nine
		{100, 0.90, true},    // ten above rank 90
		{99, 0.90, false},    // nine
		{10000, 0.999, true}, // ten above rank 9990
		{9999, 0.999, false},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if _, ok := percentile(seq(c.n), c.q); ok != c.want {
			t.Errorf("percentile(n=%d, q=%v) reportable = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is reportable")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSinceDue(t *testing.T) {
	due := time.Unix(100, 0)
	if d := sinceDue(due, due.Add(30*time.Millisecond)); d != 30*time.Millisecond {
		t.Errorf("sinceDue = %v, want 30ms", d)
	}
	if d := sinceDue(due, due.Add(-time.Millisecond)); d != 0 {
		t.Errorf("an op finished before it was due reads %v, want 0", d)
	}
}

// A stall charges every op it delays: with one sender and the first op
// taking 50ms, the ops due 10ms and 20ms later are sent late, and their
// latency from due time includes that wait while the generator itself
// was never late.
func TestOpenLoopTimesFromDue(t *testing.T) {
	ops := fixedRate(opRead, 100, 0.03, 0) // due at 0, 10ms, 20ms
	if len(ops) != 3 {
		t.Fatalf("fixedRate made %d ops, want 3", len(ops))
	}
	lr := runOpenLoop(ops, 1, time.Second, func(o op, due time.Time) (time.Time, error) {
		if o.arg == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		return time.Now(), nil
	})
	for i, r := range lr.results {
		if !r.ran {
			t.Fatalf("op %d did not run", i)
		}
		lat := sinceDue(lr.begin.Add(ops[i].due), r.end)
		sent := r.start.Sub(lr.begin.Add(ops[i].due))
		if i > 0 && lat < 50*time.Millisecond-ops[i].due {
			t.Errorf("op %d latency %v hides the stall it queued behind", i, lat)
		}
		if i > 0 && sent < 20*time.Millisecond {
			t.Errorf("op %d was sent %v after due; the stall should delay it", i, sent)
		}
	}
	if len(lr.lateness) != 0 {
		t.Errorf("generator lateness recorded for overdue ops: %v", lr.lateness)
	}
}

func TestOpenLoopGivesUpAfterDrain(t *testing.T) {
	ops := fixedRate(opRead, 1000, 0.005, 0)
	lr := runOpenLoop(ops, 1, 0, func(o op, due time.Time) (time.Time, error) {
		time.Sleep(20 * time.Millisecond)
		return time.Now(), nil
	})
	if !lr.results[0].ran {
		t.Fatal("the first op should run")
	}
	if lr.results[len(ops)-1].ran {
		t.Error("an op not started within the drain limit ran")
	}
}

func TestPairwiseF1(t *testing.T) {
	truth := map[uint64]uint64{1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
	if f := pairwiseF1(truth, truth); f != 1 {
		t.Errorf("F1 of the truth against itself = %v, want 1", f)
	}
	// Everything in one cluster: 10 predicted pairs, 4 true ones, all
	// recovered: precision 0.4, recall 1.
	one := map[uint64]uint64{1: 7, 2: 7, 3: 7, 4: 7, 5: 7}
	if f, want := pairwiseF1(one, truth), 2*0.4/1.4; math.Abs(f-want) > 1e-12 {
		t.Errorf("F1 of one big cluster = %v, want %v", f, want)
	}
	// Every snippet alone predicts no pair: F1 0, which the floor
	// check rejects, as it should un-interned copies.
	alone := map[uint64]uint64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
	if f := pairwiseF1(alone, truth); f != 0 {
		t.Errorf("F1 of singletons = %v, want 0", f)
	}
	// Labels are arbitrary: renaming clusters changes nothing.
	renamed := map[uint64]uint64{1: 9, 2: 9, 3: 9, 4: 3, 5: 3}
	if f := pairwiseF1(renamed, truth); f != 1 {
		t.Errorf("F1 after renaming labels = %v, want 1", f)
	}
	// Snippets the truth does not cover are ignored.
	extra := map[uint64]uint64{1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1}
	if f := pairwiseF1(extra, truth); f != 1 {
		t.Errorf("F1 with an uncovered snippet = %v, want 1", f)
	}
}
