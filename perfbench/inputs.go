package main

import (
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/text"
)

// genCorpus generates a datagen corpus of at least n snippets from the
// given number of sources, with eventsPerStory real-world events per
// story on average (0 keeps the datagen default). Sizes from
// experiments.CorpusScale are approximate, so the target grows until
// the corpus is large enough; the result depends only on the arguments.
func genCorpus(n, sources, eventsPerStory int, seed int64) *datagen.Corpus {
	target := n
	for {
		cfg := experiments.CorpusScale(target, sources, seed)
		if eventsPerStory > 0 {
			// Keep the expected corpus size: more, shorter stories.
			cfg.Stories = cfg.Stories * cfg.EventsPerStory / eventsPerStory
			cfg.EventsPerStory = eventsPerStory
		}
		c := datagen.Generate(cfg)
		if len(c.Snippets) >= n {
			c.Snippets = c.Snippets[:n] // event-time order: the first n
			return c
		}
		target += target/5 + 1
	}
}

// truthOf is the datagen ground truth of the snippets, as a partition.
func truthOf(c *datagen.Corpus, snippets []*event.Snippet) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(snippets))
	for _, sn := range snippets {
		out[uint64(sn.ID)] = c.Truth[sn.ID]
	}
	return out
}

// route is a read endpoint.
type route uint8

const (
	routeSearch route = iota
	routeByEntity
	routeTimeline
	routeIntegrated
	numRoutes
)

var routeNames = [numRoutes]string{"search", "by_entity", "timeline", "integrated"}

// read is one scheduled read: a route and the popularity rank of its
// parameter.
type read struct {
	route route
	rank  int
}

// vocabulary is what reads ask about, most popular first.
type vocabulary struct {
	entities []string
	terms    []string
}

// vocabularyOf ranks the corpus's entities and single-token description
// terms by how many snippets mention them.
func vocabularyOf(snippets []*event.Snippet) vocabulary {
	ents, terms := map[string]int{}, map[string]int{}
	for _, sn := range snippets {
		for _, e := range sn.Entities {
			ents[string(e)]++
		}
		for _, t := range sn.Terms {
			terms[t.Token]++
		}
	}
	var v vocabulary
	v.entities = ranked(ents, nil)
	v.terms = ranked(terms, func(tok string) bool {
		// Only tokens the query analyser leaves as they are, so a
		// search for one asks for exactly that term.
		toks := text.Pipeline(tok)
		return len(toks) == 1 && toks[0] == tok
	})
	return v
}

func ranked(freq map[string]int, keep func(string) bool) []string {
	var out []string
	for k := range freq {
		if keep == nil || keep(k) {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if freq[out[i]] != freq[out[j]] {
			return freq[out[i]] > freq[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// mix is a read workload's route weights.
type mix [numRoutes]float64

// drawReads draws n reads: routes by weight, parameters by a zipfian
// popularity rank, so a few keys are hot and the rest form a long tail.
func drawReads(n int, m mix, seed int64) []read {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 2, 1<<20)
	var total float64
	for _, w := range m {
		total += w
	}
	out := make([]read, n)
	for i := range out {
		x := rng.Float64() * total
		r := route(0)
		for ; r < numRoutes-1; r++ {
			if x < m[r] {
				break
			}
			x -= m[r]
		}
		out[i] = read{route: r, rank: int(zipf.Uint64())}
	}
	return out
}

// path renders a read as a request path. ids are the integrated story
// IDs a reader can open, in popularity order.
func (v vocabulary) path(rd read, ids []uint64) string {
	switch rd.route {
	case routeSearch:
		return "/api/search?q=" + url.QueryEscape(v.terms[rd.rank%len(v.terms)])
	case routeByEntity:
		return "/api/stories/by-entity?entity=" + url.QueryEscape(v.entities[rd.rank%len(v.entities)])
	case routeTimeline:
		return "/api/timeline?entity=" + url.QueryEscape(v.entities[rd.rank%len(v.entities)])
	default:
		return "/api/integrated/" + strconv.FormatUint(ids[rd.rank%len(ids)], 10)
	}
}
