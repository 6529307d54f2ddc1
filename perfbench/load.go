package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled operation of an open-loop run.
type op struct {
	due  time.Duration // offset from the start of the timed phase
	kind opKind
	arg  int // index into the workload's inputs for this kind
}

type opKind uint8

const (
	opRead opKind = iota
	opIngest
)

// fixedRate lays n operations of one kind evenly over [phase, ...) at
// rate per second.
func fixedRate(kind opKind, rate float64, seconds float64, phase time.Duration) []op {
	if rate <= 0 {
		return nil
	}
	step := time.Duration(float64(time.Second) / rate)
	n := int(rate * seconds)
	out := make([]op, n)
	for i := range out {
		out[i] = op{due: phase + time.Duration(i)*step, kind: kind, arg: i}
	}
	return out
}

// mergeSchedules orders several streams by due time (stable, so equal
// times keep stream order).
func mergeSchedules(streams ...[]op) []op {
	var all []op
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all
}

// opResult is what happened to one scheduled operation.
type opResult struct {
	start, end time.Time // when a sender began and finished it
	err        error
	ran        bool
}

// loadResult is an open-loop run's raw outcome.
type loadResult struct {
	begin    time.Time
	ops      []op
	results  []opResult
	lateness []float64 // ms a free sender woke after an op's due time
}

// runOpenLoop sends ops on their schedule with `senders` goroutines. A
// sender takes the next op in due order; if it is early it sleeps until
// the op is due, and how late it woke is the generator's lateness. An op
// that is already overdue when a sender frees up waited on the system,
// which its latency from due time charges to the program, not to the
// generator. Ops still unsent `drain` after the last due time are
// recorded as not run. exec returns when the op's answer was complete,
// so checks it runs afterwards are not charged to the op.
func runOpenLoop(ops []op, senders int, drain time.Duration, exec func(o op, due time.Time) (time.Time, error)) loadResult {
	res := loadResult{begin: time.Now(), ops: ops, results: make([]opResult, len(ops))}
	var last time.Duration
	if len(ops) > 0 {
		last = ops[len(ops)-1].due
	}
	giveUp := res.begin.Add(last + drain)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var late []float64
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				due := res.begin.Add(ops[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late = append(late, ms(time.Since(due)))
				}
				start := time.Now()
				if start.After(giveUp) {
					continue
				}
				end, err := exec(ops[i], due)
				res.results[i] = opResult{start: start, end: end, err: err, ran: true}
			}
			mu.Lock()
			res.lateness = append(res.lateness, late...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}
