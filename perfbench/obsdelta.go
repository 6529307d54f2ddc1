package main

import (
	"time"

	"repro/internal/obs"
)

// The program's own instruments that the per-layer metrics are made
// from. obs.Default is process-wide, so a delta over the timed phase sums
// every node the process runs (both workers on routed).
var (
	obsCounters = []string{
		"storypivot_stream_align_runs_total",
		"storypivot_refine_moves_total",
		"storypivot_align_comparisons_total",
		"storypivot_align_matches_total",
		"storypivot_identify_processed_total",
		"storypivot_identify_comparisons_total",
		"storypivot_identify_attached_total",
		"storypivot_storage_appends_total",
		"storypivot_storage_append_bytes_total",
		"storypivot_store_chunk_demotions_total",
		"storypivot_store_chunk_faults_total",
		"storypivot_index_publishes_total",
		"storypivot_index_stories_skipped_total",
		"storypivot_index_stories_updated_total",
		"storypivot_index_queries_total",
		"storypivot_cache_hits_total",
		"storypivot_cache_misses_total",
		"storypivot_cache_invalidations_total",
		"storypivot_cache_evictions_total",
		"storypivot_http_encodes_skipped_total",
		"storypivot_http_shed_total",
		"storypivot_cluster_partial_responses_total",
	}
	obsHistograms = []string{
		"storypivot_stream_align_seconds",
		"storypivot_stream_ingest_seconds",
		"storypivot_align_upsert_seconds",
		"storypivot_align_result_seconds",
		"storypivot_refine_seconds",
		"storypivot_identify_process_seconds",
		"storypivot_identify_repair_seconds",
		"storypivot_storage_append_seconds",
		"storypivot_store_cold_read_seconds",
		"storypivot_index_publish_seconds",
		"storypivot_index_query_seconds",
	}
)

// histDelta is the exact count and sum a histogram gained.
type histDelta struct {
	Count uint64
	Sum   time.Duration
}

// obsSnap is a reading of the instruments above.
type obsSnap struct {
	counters map[string]uint64
	hists    map[string]histDelta
}

func readObs() obsSnap {
	s := obsSnap{counters: make(map[string]uint64), hists: make(map[string]histDelta)}
	for _, name := range obsCounters {
		s.counters[name] = obs.Default.Counter(name, "").Value()
	}
	for _, name := range obsHistograms {
		h := obs.Default.Histogram(name, "").Snapshot()
		s.hists[name] = histDelta{Count: h.Count, Sum: h.Sum}
	}
	return s
}

// since returns what the instruments gained between before and s.
func (s obsSnap) since(before obsSnap) obsSnap {
	d := obsSnap{counters: make(map[string]uint64), hists: make(map[string]histDelta)}
	for name, v := range s.counters {
		d.counters[name] = v - before.counters[name]
	}
	for name, h := range s.hists {
		b := before.hists[name]
		d.hists[name] = histDelta{Count: h.Count - b.Count, Sum: h.Sum - b.Sum}
	}
	return d
}

// plus sums two deltas (timed phases of several episodes).
func (s obsSnap) plus(o obsSnap) obsSnap {
	d := obsSnap{counters: make(map[string]uint64), hists: make(map[string]histDelta)}
	for name, v := range o.counters {
		d.counters[name] = s.counters[name] + v
	}
	for name, h := range o.hists {
		a := s.hists[name]
		d.hists[name] = histDelta{Count: a.Count + h.Count, Sum: a.Sum + h.Sum}
	}
	return d
}

func (s obsSnap) count(name string) float64 { return float64(s.counters[name]) }

func (s obsSnap) busy(name string) float64 { return s.hists[name].Sum.Seconds() }

func (s obsSnap) calls(name string) float64 { return float64(s.hists[name].Count) }

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
