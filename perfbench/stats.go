package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1)
// and whether it may be reported: at least minBeyond samples must rank
// above it. samples need not be sorted; the slice is sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	// 0-based nearest rank; the epsilon keeps q*n that lands on a whole
	// number from rounding up through floating-point error.
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return samples[rank], n-1-rank >= minBeyond
}

// median is the middle value (mean of the two middle values for even n);
// medians of repeated set-ups need no tail rule.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sinceDue is an open-loop operation's latency: from the moment it was
// due to be sent, not the moment a sender got round to it, so a stall
// charges every request it delayed.
func sinceDue(due, end time.Time) time.Duration {
	if end.Before(due) {
		return 0
	}
	return end.Sub(due)
}

// pairwiseF1 scores a predicted partition against a true one over the
// snippets both cover: a pair of snippets is positive when it shares a
// cluster. Counting runs over the contingency table, so it is linear in
// the number of snippets.
func pairwiseF1(pred, truth map[uint64]uint64) float64 {
	type cell struct{ p, t uint64 }
	cont := make(map[cell]int)
	predSize := make(map[uint64]int)
	truthSize := make(map[uint64]int)
	for id, p := range pred {
		t, ok := truth[id]
		if !ok {
			continue
		}
		cont[cell{p, t}]++
		predSize[p]++
		truthSize[t]++
	}
	pairs := func(k int) float64 { return float64(k) * float64(k-1) / 2 }
	var tp, pp, tt float64
	for _, c := range cont {
		tp += pairs(c)
	}
	for _, c := range predSize {
		pp += pairs(c)
	}
	for _, c := range truthSize {
		tt += pairs(c)
	}
	if tp == 0 || pp == 0 || tt == 0 {
		return 0
	}
	prec, rec := tp/pp, tp/tt
	return 2 * prec * rec / (prec + rec)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
