package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	storypivot "repro"
	"repro/internal/datagen"
	"repro/internal/event"
)

// episode is one corpus of an online run with its schedule.
type episode struct {
	corpus    *datagen.Corpus
	pre, feed []*event.Snippet
	vocab     vocabulary
	reads     []read
	sched     []op
	// warm-up reads, sent before the timed phase and not measured
	warmReads []read
	warmSched []op
}

// episodeSeed derives the seed of episode e of a run from the run's
// seed; runs with different seeds share no episode corpus.
func episodeSeed(seed int64, e int) int64 { return seed*64 + int64(e) }

func newEpisode(p params, e int) episode {
	seed := episodeSeed(p.Seed, e)
	secs := p.Seconds / float64(p.Episodes)
	c := genCorpus(p.Corpus, p.Sources, p.StoryEvents, seed)
	ep := episode{corpus: c, pre: c.Snippets[:p.Preload], feed: c.Snippets[p.Preload:]}
	ep.vocab = vocabularyOf(ep.pre)
	ep.reads = drawReads(int(p.ReadRate*secs), p.Mix, seed+1)
	ep.sched = fixedRate(opRead, p.ReadRate, secs, 0)
	if p.IngestRate > 0 {
		ep.sched = mergeSchedules(ep.sched,
			fixedRate(opIngest, p.IngestRate, secs, time.Duration(float64(time.Second)/p.IngestRate/2)))
	}
	if p.Warmup > 0 {
		ep.warmReads = drawReads(int(p.ReadRate*p.Warmup), p.Mix, seed+2)
		ep.warmSched = fixedRate(opRead, p.ReadRate, p.Warmup, 0)
	}
	return ep
}

// runOnline runs the workloads that serve reads over HTTP: live (one
// node) and routed (workers behind the router) preload a corpus and
// ingest the rest of it at a fixed rate while reads arrive at a fixed
// rate, both open loop; browse preloads the whole corpus into a tiered
// store and only reads. The timed phase is split over several episodes,
// each on its own corpus, so one run's figures do not hang on the shape
// of a single small corpus.
func runOnline(p params, work string, traced bool) (*outcome, error) {
	o := &outcome{}
	eps := make([]episode, p.Episodes)
	for e := range eps {
		eps[e] = newEpisode(p, e)
	}
	heap0 := heapNow()
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
	}
	var f1s, heaps []float64
	for _, ep := range eps {
		sys, err := settled(p.Setups, o,
			func() (*routedSystem, error) { return buildOnline(p, ep, work) },
			(*routedSystem).close)
		if err != nil {
			return nil, err
		}
		f1, err := runEpisode(p, ep, sys, tr, o)
		if err == nil {
			f1s = append(f1s, f1)
			heaps = append(heaps, heapNow()-heap0)
		}
		sys.close()
		if err != nil {
			return nil, err
		}
	}
	o.spans = tr.snapshot()
	o.f1, o.heapMB = mean(f1s), mean(heaps)
	if o.f1 < p.F1Floor {
		o.problem("f1 %.3f below the floor %.2f", o.f1, p.F1Floor)
	}
	if p.ChunkRows > 0 {
		if o.views == 0 || o.unhydrated != 0 {
			o.problem("%d of %d snippet views came back without their document", o.unhydrated, o.views)
		}
		if o.delta.count("storypivot_store_chunk_faults_total") == 0 {
			o.problem("no read reached the cold tier")
		}
	}
	return o, nil
}

// buildOnline starts the node (or workers and router), preloads the
// episode's corpus and settles it: the set-up that setup_s times.
func buildOnline(p params, ep episode, work string) (*routedSystem, error) {
	var rs *routedSystem
	if p.Workers == 0 {
		opts, dir := serverOptions(), ""
		if p.ChunkRows > 0 {
			var err error
			if dir, err = os.MkdirTemp(work, "store-"); err != nil {
				return nil, err
			}
			opts = serverOptions(
				storypivot.WithStorage(dir),
				storypivot.WithTieredStorage(p.HotChunks, p.WarmChunks, true),
				storypivot.WithTierChunkRows(p.ChunkRows),
				// No promotion: the cold tier stays cold, so a read's cost
				// does not depend on which chunks earlier reads promoted.
				storypivot.WithTierColdCache(0, -1))
		}
		n, err := newNode(opts, dir)
		if err != nil {
			if dir != "" {
				os.RemoveAll(dir)
			}
			return nil, err
		}
		rs = &routedSystem{workers: []*node{n}, owner: map[event.SourceID]int{}}
	} else {
		var err error
		if rs, err = newRouted(ep.corpus.Sources, p.Workers); err != nil {
			return nil, err
		}
	}
	parts := make([][]*event.Snippet, len(rs.workers))
	for _, sn := range ep.pre {
		w := rs.owner[sn.Source]
		parts[w] = append(parts[w], sn)
	}
	for w, n := range rs.workers {
		if err := n.preload(parts[w]); err != nil {
			rs.close()
			return nil, err
		}
		n.pipeline().Result()
	}
	return rs, nil
}

// runEpisode drives one episode's schedule against a built system,
// pools its samples into o and returns the episode's f1.
func runEpisode(p params, ep episode, sys *routedSystem, tr *tracer, o *outcome) (float64, error) {
	for _, n := range sys.workers {
		n.sink = newVisSink()
		n.pipeline().Engine().AddResultSink(n.sink)
	}
	base := sys.workers[0].http.url
	if sys.http != nil {
		base = sys.http.url
	}
	rd := newReader(p.Senders)
	defer rd.close()

	var mu sync.Mutex
	var ingests []*pendingIngest
	var acked []*event.Snippet
	// Traced reads hold gate from their explicit settle to the end of
	// the HTTP request and ingests take it exclusively, so no ingest
	// lands in between: the HTTP span is then serve time only, and every
	// settle runs inside a settle span.
	var gate sync.RWMutex
	ingest := func(op op, due time.Time) (time.Time, error) {
		sn := ep.feed[op.arg].Clone()
		n := sys.workers[sys.owner[sn.Source]]
		pi := &pendingIngest{src: sn.Source, id: sn.ID, due: due, sent: time.Now()}
		n.sink.track(pi)
		root := tr.root("ingest")
		if tr != nil {
			gate.Lock()
			defer gate.Unlock()
		}
		c := root.child("pipeline.ingest")
		err := n.pipeline().Ingest(sn)
		c.end()
		root.end()
		end := time.Now()
		if err == nil {
			mu.Lock()
			ingests = append(ingests, pi)
			acked = append(acked, ep.feed[op.arg])
			mu.Unlock()
		}
		return end, err
	}
	get := func(root spanRef, r read, ids []uint64) ([]byte, error) {
		c := root.child("http." + routeNames[r.route])
		body, err := rd.get(base + ep.vocab.path(r, ids))
		c.end()
		return body, err
	}
	// readOp sends reads[op.arg]; t is nil for untraced sends, and
	// hydration is tallied only for the timed phase.
	readOp := func(reads []read, t *tracer, tally bool) func(op, time.Time) (time.Time, error) {
		return func(op op, due time.Time) (time.Time, error) {
			r := reads[op.arg]
			root := t.root("read")
			if t != nil {
				gate.RLock()
				// Settle first, so the HTTP span below is serve time only.
				for w, n := range sys.workers {
					name := "settle"
					if p.Workers > 0 {
						name = fmt.Sprintf("settle.w%d", w)
					}
					c := root.child(name)
					n.pipeline().Result()
					c.end()
				}
			}
			var ids []uint64
			if r.route == routeIntegrated {
				if ids = sys.workers[0].sink.latestIDs(); len(ids) == 0 {
					ids = storyIDs(sys.workers[0].pipeline().Engine().Result())
				}
			}
			body, err := get(root, r, ids)
			var se statusError
			if r.route == routeIntegrated && errors.As(err, &se) && se.code == http.StatusNotFound {
				// The story was picked from the last publish the reader
				// saw, and the settle this read triggered merged it away;
				// pick again from the result that settle published, as a
				// user reloading the story list would.
				ids = storyIDs(sys.workers[0].pipeline().Engine().Result())
				body, err = get(root, r, ids)
			}
			if t != nil {
				gate.RUnlock()
			}
			root.end()
			end := time.Now()
			if err == nil && p.Workers > 0 && bytes.Contains(body, []byte(`"partial":true`)) {
				err = errors.New("partial answer from the router")
			}
			if err == nil && tally && p.ChunkRows > 0 && (r.route == routeTimeline || r.route == routeIntegrated) {
				// Every snippet view carries a timestamp; a hydrated one
				// also carries its document, which is omitted when empty.
				views := bytes.Count(body, []byte(`"timestamp":`))
				docs := bytes.Count(body, []byte(`"document":`))
				mu.Lock()
				o.views += views
				o.unhydrated += views - docs
				mu.Unlock()
			}
			return end, err
		}
	}
	if len(ep.warmSched) > 0 {
		warm := runOpenLoop(ep.warmSched, p.Senders, drainLimit, readOp(ep.warmReads, nil, false))
		for _, r := range warm.results {
			if r.err != nil {
				return 0, fmt.Errorf("warm-up read: %w", r.err)
			}
		}
	}
	sendReads := readOp(ep.reads, tr, true)
	exec := func(op op, due time.Time) (time.Time, error) {
		if op.kind == opIngest {
			return ingest(op, due)
		}
		return sendReads(op, due)
	}
	// Collect the set-up's garbage now, so the timed phase does not pay
	// for it.
	runtime.GC()
	before := readObs()
	lr := runOpenLoop(ep.sched, p.Senders, drainLimit, exec)
	o.delta = o.delta.plus(readObs().since(before))
	o.collect(lr)
	o.reads += len(ep.reads)

	// Final settle, then freshness and quality, off the clock.
	pred := make(map[uint64]uint64)
	stories := 0
	for _, n := range sys.workers {
		res := n.pipeline().Engine().Result()
		partition(res, pred)
		stories += len(res.Integrated)
		n.sink.stop()
	}
	for _, pi := range ingests {
		if pi.visible.IsZero() {
			o.problem("snippet %d was acknowledged but never published", pi.id)
			continue
		}
		o.visibleMS = append(o.visibleMS, ms(sinceDue(pi.due, pi.visible)))
	}
	all := append(append([]*event.Snippet(nil), ep.pre...), acked...)
	if stories*10 > len(all) {
		o.problem("%d integrated stories from %d snippets: copies were not re-interned", stories, len(all))
	}
	if len(pred) != len(all) {
		o.problem("result holds %d snippets, %d were ingested", len(pred), len(all))
	}
	return pairwiseF1(pred, truthOf(ep.corpus, all)), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
