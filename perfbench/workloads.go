package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"
)

// params are a workload's inputs apart from the seed. They are stamped
// on every result.
type params struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Senders  int     `json:"senders"`
	Sources  int     `json:"sources"`
	Corpus   int     `json:"corpus_snippets"`
	Preload  int     `json:"preload_snippets"`
	// StoryEvents is the mean number of events per datagen story; 0
	// keeps the datagen default.
	StoryEvents int     `json:"story_events,omitempty"`
	ReadRate    float64 `json:"reads_per_s"`
	IngestRate  float64 `json:"ingests_per_s"`
	Mix         mix     `json:"read_mix"` // search, by-entity, timeline, integrated
	Workers     int     `json:"workers,omitempty"`
	ChunkRows   int     `json:"chunk_rows,omitempty"`
	HotChunks   int     `json:"hot_chunks,omitempty"`
	WarmChunks  int     `json:"warm_chunks,omitempty"`
	Warmup      float64 `json:"warmup_s,omitempty"`
	Setups      int     `json:"setups,omitempty"`
	Episodes    int     `json:"episodes,omitempty"`
	F1Floor     float64 `json:"f1_floor"`
}

// workloadParams fixes each workload's shape. Rates are sized so the
// code as it stood when the benchmark was defined runs below saturation
// on two cores, and every reported percentile has at least minBeyond
// samples above it.
func workloadParams(name string, seed int64, seconds float64, senders int) (params, error) {
	p := params{Workload: name, Seed: seed, Seconds: seconds, Senders: senders}
	switch name {
	case "live":
		p.Sources, p.Preload, p.Episodes = 8, 1500, 4
		p.ReadRate, p.IngestRate = 120, 5
		p.Mix = mix{0.30, 0.25, 0.25, 0.20}
		p.Setups, p.F1Floor = 3, 0.5
	case "routed":
		p.Sources, p.Preload, p.Episodes, p.Workers = 8, 1500, 4, 2
		p.ReadRate, p.IngestRate = 120, 5
		p.Mix = mix{0.35, 0.30, 0.35, 0}
		p.Setups, p.F1Floor = 3, 0.35
	case "browse":
		p.Sources, p.Preload, p.Episodes, p.StoryEvents = 8, 2000, 6, 6
		p.ReadRate = 520
		p.Mix = mix{0.20, 0.15, 0.35, 0.30}
		p.ChunkRows, p.HotChunks, p.WarmChunks = 128, 1, 1
		p.Warmup, p.Setups, p.F1Floor = 1, 1, 0.5
	case "backfill":
		// Set-up opens the store and preloads the first 5% of the
		// corpus; the timed phase pushes the rest.
		p.Sources, p.Corpus, p.Preload = 50, 100000, 5000
		p.Setups, p.F1Floor = 3, 0.5
	default:
		return p, fmt.Errorf("unknown workload %q (want live, browse, backfill or routed)", name)
	}
	if p.Corpus == 0 {
		p.Corpus = p.Preload + int(p.IngestRate*seconds/float64(p.Episodes))
	}
	return p, nil
}

// outcome is one run of a workload: the raw samples every metric is
// computed from.
type outcome struct {
	setups     []float64 // s, one per set-up
	opMS       []float64 // foreground operation latencies
	attempted  int
	failed     int
	completed  int
	elapsed    time.Duration // timed phase, until the last op completed
	visibleMS  []float64
	latenessMS []float64
	heapMB     float64
	f1         float64
	problems   []string // failed output checks
	delta      obsSnap  // program instruments over the timed phase
	reads      int
	spans      []span
	errSample  string
	views      int // snippet views in tiered reads
	unhydrated int // of which came back without their document
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.errSample == "" {
		o.errSample = err.Error()
	}
}

// heapNow is the live Go heap after a forced collection.
func heapNow() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// reader issues the reads of one run over a pool of at most `senders`
// connections.
type reader struct {
	client *http.Client
}

func newReader(senders int) *reader {
	return &reader{client: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		},
	}}
}

// statusError is a non-2xx answer.
type statusError struct {
	url  string
	code int
}

func (e statusError) Error() string { return fmt.Sprintf("GET %s: status %d", e.url, e.code) }

func (r *reader) get(url string) ([]byte, error) {
	resp, err := r.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError{url, resp.StatusCode}
	}
	return body, nil
}

func (r *reader) close() { r.client.CloseIdleConnections() }

// drainLimit bounds how long a run waits for work still queued when its
// schedule ends; ops not started by then count as failed.
const drainLimit = 30 * time.Second

// settled runs the repeated set-ups, timing each, and keeps the last
// system; the others are closed as soon as they have been timed.
func settled[S any](n int, o *outcome, build func() (S, error), closeFn func(S)) (S, error) {
	var sys S
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(sys)
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return sys, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		sys = s
	}
	return sys, nil
}

// collect turns an open-loop run into counts and read latencies.
func (o *outcome) collect(lr loadResult) {
	last := lr.begin
	for i, r := range lr.results {
		o.attempted++
		if !r.ran {
			o.fail(fmt.Errorf("op %d not sent within the drain limit", i))
			continue
		}
		if r.err != nil {
			o.fail(r.err)
			continue
		}
		o.completed++
		if r.end.After(last) {
			last = r.end
		}
		if lr.ops[i].kind == opRead {
			o.opMS = append(o.opMS, ms(sinceDue(lr.begin.Add(lr.ops[i].due), r.end)))
		}
	}
	o.elapsed += last.Sub(lr.begin)
	o.latenessMS = append(o.latenessMS, lr.lateness...)
}
