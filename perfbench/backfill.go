package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	storypivot "repro"
	"repro/internal/event"
)

// backfillStore is one pipeline over a fresh durable tiered store.
type backfillStore struct {
	pl  *storypivot.Pipeline
	dir string
}

// openBackfillStore opens a pipeline over a fresh store and ingests
// copies of pre: the set-up that setup_s times. Backfill never reads, so
// nothing is settled.
func openBackfillStore(work string, pre []*event.Snippet) (backfillStore, error) {
	dir, err := os.MkdirTemp(work, "backfill-")
	if err != nil {
		return backfillStore{}, err
	}
	pl, err := storypivot.New(serverOptions(
		storypivot.WithStorage(dir),
		storypivot.WithTieredStorage(0, 0, true))...)
	if err != nil {
		os.RemoveAll(dir)
		return backfillStore{}, err
	}
	st := backfillStore{pl, dir}
	for _, sn := range pre {
		if err := pl.Ingest(sn.Clone()); err != nil {
			st.close()
			return backfillStore{}, fmt.Errorf("preloading snippet %d: %w", sn.ID, err)
		}
	}
	return st, nil
}

func (s backfillStore) close() {
	s.pl.Close()
	os.RemoveAll(s.dir)
}

// runBackfill pushes a corpus from many sources through Pipeline.Ingest
// into durable tiered storage, closed loop: each sender owns a disjoint
// set of sources and sends its next snippet as soon as the last one is
// acknowledged. Passes over the corpus, each into a fresh store set up
// with the corpus's first snippets preloaded, repeat until the run's
// time is up, so the whole run is measured and a slow stretch of the
// machine weighs on a run's figures no more than its length; the last
// pass stops where the time runs out.
func runBackfill(p params, work string, traced bool) (*outcome, error) {
	o := &outcome{}
	corpus := genCorpus(p.Corpus, p.Sources, p.StoryEvents, p.Seed)
	pre := corpus.Snippets[:p.Preload]
	parts := make([][]*event.Snippet, p.Senders)
	owner := make(map[event.SourceID]int)
	for i, src := range corpus.Sources {
		owner[src] = i % p.Senders
	}
	for _, sn := range corpus.Snippets[p.Preload:] {
		parts[owner[sn.Source]] = append(parts[owner[sn.Source]], sn)
	}
	// Identification is per source, so the truth it is scored against is
	// the datagen story split by source.
	srcIdx := make(map[event.SourceID]uint64)
	for i, src := range corpus.Sources {
		srcIdx[src] = uint64(i)
	}
	truth := make(map[uint64]uint64, len(corpus.Snippets))
	for _, sn := range corpus.Snippets {
		truth[uint64(sn.ID)] = corpus.Truth[sn.ID]<<8 | srcIdx[sn.Source]
	}
	heap0 := heapNow()

	st, err := settled(p.Setups, o, func() (backfillStore, error) { return openBackfillStore(work, pre) }, backfillStore.close)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
	}
	deadline := time.Now().Add(time.Duration(p.Seconds * float64(time.Second)))
	var f1s []float64
	for pass := 0; time.Now().Before(deadline); pass++ {
		if pass > 0 {
			t0 := time.Now()
			if st, err = openBackfillStore(work, pre); err != nil {
				return nil, err
			}
			o.setups = append(o.setups, time.Since(t0).Seconds())
		}
		acked, complete := pushPass(st.pl, parts, deadline, tr, o)
		ts, _ := st.pl.TierStats()
		if int(ts.Rows) != len(pre)+acked {
			o.problem("pass %d: store holds %d rows, %d snippets were preloaded and %d acknowledged", pass, ts.Rows, len(pre), acked)
		}
		if complete {
			pred := make(map[uint64]uint64)
			for _, src := range corpus.Sources {
				for _, story := range st.pl.Stories(src) {
					for _, sn := range story.Snippets {
						pred[uint64(sn.ID)] = uint64(story.ID)
					}
				}
			}
			if len(pred) != len(corpus.Snippets) {
				o.problem("pass %d: identification placed %d of %d snippets", pass, len(pred), len(corpus.Snippets))
			}
			f1s = append(f1s, pairwiseF1(pred, truth))
			if pass == 0 {
				o.heapMB = heapNow() - heap0
			}
		}
		st.close()
	}
	o.spans = tr.snapshot()
	if len(f1s) == 0 {
		o.problem("no pass pushed the whole corpus of %d snippets within the run", len(corpus.Snippets))
	}
	o.f1 = mean(f1s)
	if o.f1 < p.F1Floor {
		o.problem("f1 %.3f below the floor %.2f", o.f1, p.F1Floor)
	}
	return o, nil
}

// pushPass pushes the corpus once into pl with one sender per part, until
// done or the deadline, pooling latencies, counts and instrument deltas
// into o. It reports how many snippets were acknowledged and whether the
// whole corpus was.
func pushPass(pl *storypivot.Pipeline, parts [][]*event.Snippet, deadline time.Time, tr *tracer, o *outcome) (int, bool) {
	before := readObs()
	begin := time.Now()
	lat := make([][]float64, len(parts))
	errs := make([][]error, len(parts))
	ackedBy := make([]int, len(parts))
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := make([]float64, 0, len(parts[w]))
			for _, sn := range parts[w] {
				if time.Now().After(deadline) {
					break
				}
				cp := sn.Clone()
				root := tr.root("ingest")
				c := root.child("pipeline.ingest")
				t0 := time.Now()
				err := pl.Ingest(cp)
				d := time.Since(t0)
				c.end()
				root.end()
				if err != nil {
					errs[w] = append(errs[w], fmt.Errorf("snippet %d: %w", sn.ID, err))
					continue
				}
				ackedBy[w]++
				l = append(l, ms(d))
			}
			lat[w] = l
		}(w)
	}
	wg.Wait()
	o.elapsed += time.Since(begin)
	o.delta = o.delta.plus(readObs().since(before))
	acked, total := 0, 0
	for w := range parts {
		total += len(parts[w])
		acked += ackedBy[w]
		o.opMS = append(o.opMS, lat[w]...)
		for _, err := range errs[w] {
			o.fail(err)
		}
		o.attempted += ackedBy[w] + len(errs[w])
	}
	o.completed += acked
	return acked, acked == total
}
