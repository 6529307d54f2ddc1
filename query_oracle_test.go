package storypivot

import (
	"sort"

	"repro/internal/text"
)

// The full-scan query implementations: the correctness oracle the
// differential tests compare the indexed query path against. They walk
// the whole alignment result per query, so they live with the tests.

// pageOf windows a fully materialised result list (the scan path's
// pagination).
func pageOf[T any](all []T, offset, limit int) ([]T, int) {
	total := len(all)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	hi := total
	if limit >= 0 && offset+limit < total {
		hi = offset + limit
	}
	return all[offset:hi], total
}

// scanStoriesByEntity is the legacy full-scan implementation: it walks
// every integrated story and materialises its merged entity-frequency
// map. Retained as the correctness oracle for the indexed path.
func (p *Pipeline) scanStoriesByEntity(e Entity) []*IntegratedStory {
	out, _ := p.scanStoriesByEntityScored(e)
	return out
}

func (p *Pipeline) scanStoriesByEntityScored(e Entity) ([]*IntegratedStory, []float64) {
	type scored struct {
		is    *IntegratedStory
		count int
	}
	var hits []scored
	for _, is := range p.Result().Integrated() {
		if c := is.EntityFreq()[e]; c > 0 {
			hits = append(hits, scored{is, c})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].count != hits[j].count {
			return hits[i].count > hits[j].count
		}
		return hits[i].is.ID < hits[j].is.ID
	})
	out := make([]*IntegratedStory, len(hits))
	scores := make([]float64, len(hits))
	for i, h := range hits {
		out[i] = h.is
		scores[i] = float64(h.count)
	}
	return out, scores
}

// scanSearch is the legacy full-scan search: it materialises every
// integrated story's merged centroid map per query. Retained as the
// correctness oracle for the indexed path.
func (p *Pipeline) scanSearch(query string) []*IntegratedStory {
	out, _ := p.scanSearchScored(query)
	return out
}

func (p *Pipeline) scanSearchScored(query string) ([]*IntegratedStory, []float64) {
	toks := text.Pipeline(query)
	if len(toks) == 0 {
		return []*IntegratedStory{}, []float64{}
	}
	type scored struct {
		is *IntegratedStory
		w  float64
	}
	var hits []scored
	for _, is := range p.Result().Integrated() {
		centroid := is.Centroid()
		var w float64
		for _, tok := range toks {
			w += centroid[tok]
		}
		if w > 0 {
			hits = append(hits, scored{is, w})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].w != hits[j].w {
			return hits[i].w > hits[j].w
		}
		return hits[i].is.ID < hits[j].is.ID
	})
	out := make([]*IntegratedStory, len(hits))
	scores := make([]float64, len(hits))
	for i, h := range hits {
		out[i] = h.is
		scores[i] = h.w
	}
	return out, scores
}

// scanTimeline is the legacy full-scan timeline: it visits every snippet
// of every integrated story. Retained as the correctness oracle for the
// indexed path.
func (p *Pipeline) scanTimeline(e Entity) []*Snippet {
	out := []*Snippet{}
	for _, is := range p.Result().Integrated() {
		for _, sn := range is.Snippets() {
			if sn.HasEntity(e) {
				out = append(out, sn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Timestamp.Equal(out[j].Timestamp) {
			return out[i].Timestamp.Before(out[j].Timestamp)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
