package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// latenessBound is how late the generator may run (p99 of its wake-up
// delay) before a run is invalid: past it, the figures would describe a
// starved load generator rather than the program.
const latenessBound = 20.0 // ms

// endToEnd computes the metrics a user of the system sees, from an
// untraced run. It returns the problems that make the run invalid.
func endToEnd(p params, o *outcome) (map[string]metric, []string) {
	var bad []string
	tail := func(name string, samples []float64, q float64) float64 {
		v, ok := percentile(samples, q)
		if !ok {
			bad = append(bad, name+": too few samples for this percentile")
		}
		return v
	}
	m := map[string]metric{
		"setup_s":   {median(o.setups), "s"},
		"op_p50_ms": {tail("op_p50_ms", o.opMS, 0.50), "ms"},
		"op_p99_ms": {tail("op_p99_ms", o.opMS, 0.99), "ms"},
		"ops_per_s": {float64(o.completed) / o.elapsed.Seconds(), "1/s"},
		"heap_mb":   {o.heapMB, "MiB"},
		"ok_frac":   {float64(o.attempted-o.failed) / float64(max(o.attempted, 1)), "ratio"},
		"f1":        {o.f1, "ratio"},
	}
	if late, _ := percentile(o.latenessMS, 0.99); late > latenessBound {
		bad = append(bad, "generator ran late: lateness p99 above bound")
	}
	return m, bad
}

// perLayer computes the per-layer metrics: counts and busy time from the
// program's obs instruments over the traced run's timed phase, span
// timings from the benchmark's traced calls, and the workload-specific
// end-to-end figures and the tracing overhead from the untraced run.
func perLayer(p params, plain, tr *outcome) map[string]metric {
	d := tr.delta
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	// pct returns a reportable percentile, or 0 when the layer was not
	// exercised or has too few samples for it.
	pct := func(samples []float64, q float64) float64 {
		v, ok := percentile(samples, q)
		if !ok {
			return 0
		}
		return v
	}

	// stream
	settleSpans := durations(tr.spans, "settle")
	for w := 0; w < p.Workers; w++ {
		settleSpans = append(settleSpans, durations(tr.spans, "settle.w"+strconv.Itoa(w))...)
	}
	busy := d.busy("storypivot_stream_align_seconds")
	var settleCall float64
	for _, v := range settleSpans {
		settleCall += v / 1000
	}
	put("stream.settle.count", d.count("storypivot_stream_align_runs_total"), "count")
	put("stream.settle.busy_s", busy, "s")
	put("stream.settle.p99_ms", pct(settleSpans, 0.99), "ms")
	put("stream.settle.wait_s", max(settleCall-busy, 0), "s")
	put("stream.ingest.busy_s", d.busy("storypivot_stream_ingest_seconds"), "s")

	// align
	put("align.upsert.busy_s", d.busy("storypivot_align_upsert_seconds"), "s")
	put("align.upsert.count", d.calls("storypivot_align_upsert_seconds"), "count")
	put("align.result.busy_s", d.busy("storypivot_align_result_seconds"), "s")
	put("align.refine.busy_s", d.busy("storypivot_refine_seconds"), "s")
	put("align.refine.moves", d.count("storypivot_refine_moves_total"), "count")
	put("align.comparisons", d.count("storypivot_align_comparisons_total"), "count")
	put("align.match_ratio", ratio(d.count("storypivot_align_matches_total"), d.count("storypivot_align_comparisons_total")), "ratio")

	// identify
	processed := d.count("storypivot_identify_processed_total")
	put("identify.process.busy_s", d.busy("storypivot_identify_process_seconds"), "s")
	put("identify.repair.busy_s", d.busy("storypivot_identify_repair_seconds"), "s")
	put("identify.comparisons_per_snippet", ratio(d.count("storypivot_identify_comparisons_total"), processed), "count")
	put("identify.attach_ratio", ratio(d.count("storypivot_identify_attached_total"), processed), "ratio")

	// storage
	appends := d.count("storypivot_storage_appends_total")
	faults := d.count("storypivot_store_chunk_faults_total")
	put("storage.append.busy_s", d.busy("storypivot_storage_append_seconds"), "s")
	put("storage.append.count", appends, "count")
	put("storage.append_bytes_per_snippet", ratio(d.count("storypivot_storage_append_bytes_total"), appends), "B")
	put("storage.demotions", d.count("storypivot_store_chunk_demotions_total"), "count")
	put("storage.cold_read.count", faults, "count")
	put("storage.cold_read.busy_s", d.busy("storypivot_store_cold_read_seconds"), "s")
	put("storage.faults_per_read", ratio(faults, float64(tr.reads)), "ratio")

	// index
	skipped := d.count("storypivot_index_stories_skipped_total")
	put("index.publish.count", d.count("storypivot_index_publishes_total"), "count")
	put("index.publish.busy_s", d.busy("storypivot_index_publish_seconds"), "s")
	put("index.publish.skip_ratio", ratio(skipped, skipped+d.count("storypivot_index_stories_updated_total")), "ratio")
	put("index.query.count", d.count("storypivot_index_queries_total"), "count")
	put("index.query.busy_s", d.busy("storypivot_index_query_seconds"), "s")

	// qcache
	hits := d.count("storypivot_cache_hits_total")
	put("qcache.hit_ratio", ratio(hits, hits+d.count("storypivot_cache_misses_total")), "ratio")
	put("qcache.invalidations", d.count("storypivot_cache_invalidations_total"), "count")
	put("qcache.evictions", d.count("storypivot_cache_evictions_total"), "count")

	// server (with httpx); on routed the HTTP spans are the router's.
	var serve []float64
	for r := route(0); r < numRoutes; r++ {
		spans := durations(tr.spans, "http."+routeNames[r])
		serve = append(serve, spans...)
		if p.Workers > 0 {
			spans = nil
		}
		put("server."+routeNames[r]+".p50_ms", pct(spans, 0.50), "ms")
		put("server."+routeNames[r]+".p90_ms", pct(spans, 0.90), "ms")
	}
	put("server.encodes_skipped", d.count("storypivot_http_encodes_skipped_total"), "count")
	put("server.shed", d.count("storypivot_http_shed_total"), "count")

	// cluster
	var serve99, route99, shard99, skew, partial float64
	if p.Workers == 0 {
		serve99 = pct(serve, 0.99)
	} else {
		route99 = pct(serve, 0.99)
		var shards []float64
		var total, slowest float64
		for w := 0; w < p.Workers; w++ {
			s := durations(tr.spans, "settle.w"+strconv.Itoa(w))
			shards = append(shards, s...)
			var sum float64
			for _, v := range s {
				sum += v
			}
			total += sum
			slowest = max(slowest, sum)
		}
		shard99 = pct(shards, 0.99)
		skew = ratio(slowest, total/float64(p.Workers))
		partial = ratio(d.count("storypivot_cluster_partial_responses_total"), float64(tr.reads))
	}
	put("server.serve.p99_ms", serve99, "ms")
	put("cluster.route.p99_ms", route99, "ms")
	put("cluster.shard_settle.p99_ms", shard99, "ms")
	put("cluster.settle_skew", skew, "ratio")
	put("cluster.partial_frac", partial, "ratio")

	// load generator
	late, _ := percentile(tr.latenessMS, 0.99)
	put("driver.lateness_p99_ms", late, "ms")
	base, traced := median(plain.opMS), median(tr.opMS)
	put("driver.trace_overhead", ratio(traced-base, base), "ratio")

	// Workload-specific end-to-end figures, from the untraced run.
	put("e2e.visible_p50_ms", pct(plain.visibleMS, 0.50), "ms")
	put("e2e.visible_p90_ms", pct(plain.visibleMS, 0.90), "ms")
	put("e2e.op_p999_ms", pct(plain.opMS, 0.999), "ms")
	eps := 0.0
	if p.Workload == "backfill" {
		eps = float64(plain.completed) / plain.elapsed.Seconds()
	}
	put("e2e.ingest_eps", eps, "1/s")
	return m
}

// environment is the stamp printed before every result and stored with
// every trace.
func environment(p params) map[string]any {
	return map[string]any{
		"commit":        commit(),
		"source_sha256": sourceHash(),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"params":        p,
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the checked-out git commit, or "unknown" outside a git
// checkout (source_sha256 identifies the code either way).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the Go sources and module files of the checkout
// (the current directory), skipping build output.
func sourceHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
