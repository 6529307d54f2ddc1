// Package server implements the StoryPivot demonstration backend: an HTTP
// JSON API plus an embedded HTML front-end that mirrors the paper's demo
// modules — document selection (Figure 3), story overview (Figure 4),
// stories per source (Figure 5), snippets per story (Figure 6), and the
// statistics module (Figure 7).
package server

import (
	"sort"
	"time"

	"repro/internal/event"
)

// SnippetView is the JSON rendering of a snippet (Figures 5/6 "Snippet
// Information" panel).
type SnippetView struct {
	ID        uint64    `json:"id"`
	Source    string    `json:"source"`
	Timestamp time.Time `json:"timestamp"`
	Entities  []string  `json:"entities"`
	Terms     []string  `json:"description"`
	Text      string    `json:"text,omitempty"`
	Document  string    `json:"document,omitempty"`
	Role      string    `json:"role,omitempty"`
}

// snippetTexter hydrates display text for snippets whose resident copy
// carries none (the event store strips it); *storypivot.Pipeline
// implements it. A nil reader renders the snippet as-is.
type snippetTexter interface {
	SnippetText(id event.SnippetID) (text, document string, ok bool)
}

func snippetView(rd snippetTexter, s *event.Snippet, role event.SnippetRole) SnippetView {
	v := SnippetView{
		ID:        uint64(s.ID),
		Source:    string(s.Source),
		Timestamp: s.Timestamp,
		Text:      s.Text,
		Document:  s.Document,
	}
	if rd != nil && v.Text == "" && v.Document == "" {
		// Either the snippet genuinely has no display text (hydration
		// returns the same empties and omitempty keeps the JSON
		// identical) or it was stripped for the tiers and the store
		// holds the payload.
		if text, doc, ok := rd.SnippetText(s.ID); ok {
			v.Text, v.Document = text, doc
		}
	}
	for _, e := range s.Entities {
		v.Entities = append(v.Entities, string(e))
	}
	for _, t := range s.Terms {
		v.Terms = append(v.Terms, t.Token)
	}
	if role != event.RoleUnknown {
		v.Role = role.String()
	}
	return v
}

// EntityCountView renders "{UKR,5}" style entries of the story panels.
type EntityCountView struct {
	Entity string `json:"entity"`
	Count  int    `json:"count"`
}

// TermWeightView renders "{crash,3}" style entries.
type TermWeightView struct {
	Token  string  `json:"token"`
	Weight float64 `json:"weight"`
}

// StoryView is the JSON rendering of a per-source story ("Story
// Information" panel, Figure 5).
type StoryView struct {
	ID       uint64            `json:"id"`
	Source   string            `json:"source"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Size     int               `json:"snippets"`
	Entities []EntityCountView `json:"entities"`
	Terms    []TermWeightView  `json:"description"`
	Snippets []SnippetView     `json:"snippetList,omitempty"`
}

func storyView(rd snippetTexter, st *event.Story, withSnippets bool) StoryView {
	v := StoryView{
		ID:     uint64(st.ID),
		Source: string(st.Source),
		Start:  st.Start,
		End:    st.End,
		Size:   st.Len(),
	}
	for _, ec := range st.TopEntities(10) {
		v.Entities = append(v.Entities, EntityCountView{string(ec.Entity), ec.Count})
	}
	for _, tw := range st.TopTerms(10) {
		v.Terms = append(v.Terms, TermWeightView{tw.Token, tw.Weight})
	}
	if withSnippets {
		for _, s := range st.Snippets {
			v.Snippets = append(v.Snippets, snippetView(rd, s, event.RoleUnknown))
		}
	}
	return v
}

// SearchPageView is the paginated envelope of /api/search and
// /api/stories/by-entity: one window of the ranked hits plus the total
// hit count. Scores is populated only when the request asks for it
// (scores=1) — the side channel a scatter-gather router uses to merge
// shard pages; omitempty keeps ordinary responses byte-identical whether
// or not the serving node is a shard.
type SearchPageView struct {
	Total   int              `json:"total"`
	Offset  int              `json:"offset"`
	Limit   int              `json:"limit"`
	Results []IntegratedView `json:"results"`
	Scores  []float64        `json:"scores,omitempty"`
}

// TimelinePageView is the paginated envelope of /api/timeline.
type TimelinePageView struct {
	Total   int           `json:"total"`
	Offset  int           `json:"offset"`
	Limit   int           `json:"limit"`
	Results []SnippetView `json:"results"`
}

// IntegratedView renders an integrated story (Figures 4 and 6).
type IntegratedView struct {
	ID       uint64            `json:"id"`
	Sources  []string          `json:"sources"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Size     int               `json:"snippets"`
	Members  []StoryView       `json:"members,omitempty"`
	Entities []EntityCountView `json:"entities"`
	Snippets []SnippetView     `json:"snippetList,omitempty"`
}

func integratedView(rd snippetTexter, is *event.IntegratedStory, detail bool) IntegratedView {
	start, end := is.Extent()
	v := IntegratedView{
		ID:    uint64(is.ID),
		Start: start,
		End:   end,
		Size:  is.Len(),
	}
	for _, s := range is.Sources() {
		v.Sources = append(v.Sources, string(s))
	}
	// Top entities by count.
	ef := is.EntityFreq()
	top := make([]event.EntityCount, 0, len(ef))
	for e, c := range ef {
		top = append(top, event.EntityCount{Entity: e, Count: c})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Count != top[j].Count {
			return top[i].Count > top[j].Count
		}
		return top[i].Entity < top[j].Entity
	})
	if len(top) > 10 {
		top = top[:10]
	}
	for _, ec := range top {
		v.Entities = append(v.Entities, EntityCountView{string(ec.Entity), ec.Count})
	}
	if detail {
		for _, m := range is.Members {
			v.Members = append(v.Members, storyView(rd, m, false))
		}
		for _, s := range is.Snippets() {
			v.Snippets = append(v.Snippets, snippetView(rd, s, is.Roles[s.ID]))
		}
	}
	return v
}

// DocumentView renders an entry of the document-selection module
// (Figure 3).
type DocumentView struct {
	Source    string    `json:"source"`
	URL       string    `json:"url"`
	Title     string    `json:"title"`
	Preview   string    `json:"preview"`
	Published time.Time `json:"published"`
	Selected  bool      `json:"selected"`
}

// SourceStatsView is one source's row in the statistics module (Figure 7).
type SourceStatsView struct {
	Source      string `json:"source"`
	Snippets    int    `json:"snippets"`
	Stories     int    `json:"stories"`
	Comparisons int    `json:"comparisons"`
	Splits      int    `json:"splits"`
	Merges      int    `json:"merges"`
}

// StatsView is the statistics module payload.
type StatsView struct {
	Sources       []SourceStatsView `json:"sources"`
	Ingested      uint64            `json:"ingested"`
	Integrated    int               `json:"integratedStories"`
	MultiSource   int               `json:"multiSourceStories"`
	Matches       int               `json:"matches"`
	AlignMeanMs   float64           `json:"alignMeanMs"`
	IngestMeanUs  float64           `json:"ingestMeanMicros"`
	IdentifyMode  string            `json:"identifyMode"`
	WindowHours   float64           `json:"windowHours"`
	StartDate     time.Time         `json:"startDate"`
	EndDate       time.Time         `json:"endDate"`
	EntityCount   int               `json:"entities"`
	DocumentCount int               `json:"documents"`
}
