package storypivot

import (
	"time"

	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/retire"
	"repro/internal/storage"
	"repro/internal/stream"
)

// config collects everything New needs; Options mutate it.
type config struct {
	stream     stream.Options
	gazetteer  *extract.Gazetteer
	kb         *kb.KB
	bigrams    bool
	storageDir string
	storageOpt storage.Options
	retire     retire.Config
}

// Option configures a Pipeline.
type Option func(*config)

// WithMode selects the identification execution mode (Figure 2):
// ModeTemporal (default) or ModeComplete.
func WithMode(m Mode) Option {
	return func(c *config) { c.stream.Identify.Mode = m }
}

// WithWindow sets ω, the sliding-window half-width for temporal
// identification.
func WithWindow(w time.Duration) Option {
	return func(c *config) { c.stream.Identify.Window = w }
}

// WithAttachThreshold sets the minimum similarity for a snippet to join an
// existing story.
func WithAttachThreshold(t float64) Option {
	return func(c *config) { c.stream.Identify.AttachThreshold = t }
}

// WithRepairEvery sets how often (in processed snippets) the split/merge
// repair pass runs; 0 disables incremental repair.
func WithRepairEvery(n int) Option {
	return func(c *config) { c.stream.Identify.RepairEvery = n }
}

// WithSketchIndex enables MinHash/LSH candidate retrieval in story
// identification (paper §2.4 sketches).
func WithSketchIndex(on bool) Option {
	return func(c *config) { c.stream.Identify.UseSketchIndex = on }
}

// WithSketchFilter enables the MinHash pre-filter in story alignment.
func WithSketchFilter(on bool) Option {
	return func(c *config) { c.stream.Align.UseSketchFilter = on }
}

// WithAlignThreshold sets the minimum story-level similarity for
// cross-source alignment.
func WithAlignThreshold(t float64) Option {
	return func(c *config) { c.stream.Align.MatchThreshold = t }
}

// WithAlignSlack sets the temporal tolerance of the alignment candidate
// filter.
func WithAlignSlack(d time.Duration) Option {
	return func(c *config) { c.stream.Align.Slack = d }
}

// WithAlignEntityIDF toggles inverse-mention-frequency entity weighting
// in the alignment phase (on by default). The IDF statistics aggregate
// over every story under alignment, which makes match scores depend on
// the whole corpus trajectory; turning it off pins alignment to uniform
// entity weights, a pure function of the two stories compared. The
// cluster's byte-identity differential proofs run with it off, because a
// worker shard only observes its own partition's statistics — see
// DESIGN.md §3.12 for the shard-local-IDF discussion.
func WithAlignEntityIDF(on bool) Option {
	return func(c *config) { c.stream.Align.UseEntityIDF = on }
}

// WithRefinement runs story refinement (paper Figure 1d) after every
// alignment, propagating cross-source corrections back into the
// per-source story sets.
func WithRefinement(on bool) Option {
	return func(c *config) { c.stream.RefineOnAlign = on }
}

// WithAutoAlign re-aligns automatically every n ingested snippets
// (0 = align lazily on demand, the default).
func WithAutoAlign(n int) Option {
	return func(c *config) { c.stream.AutoAlignEvery = n }
}

// WithGazetteer replaces the entity gazetteer used by document extraction.
func WithGazetteer(g *Gazetteer) Option {
	return func(c *config) { c.gazetteer = g }
}

// WithBigrams additionally emits adjacent-token bigrams as description
// terms during extraction; phrase matches ("shot_down") discriminate
// stories better than their unigrams at the cost of a larger vocabulary.
func WithBigrams(on bool) Option {
	return func(c *config) { c.bigrams = on }
}

// WithStorage persists every ingested snippet to a crash-safe chunked
// event store in dir; on reopening a pipeline over the same directory
// the snippets are replayed through identification so state survives
// restarts. The store keeps snippet payloads in fixed-row chunk files
// that age from memory (hot) to mmap (warm) to disk (cold), so resident
// memory stops scaling with corpus size. The engine then holds
// display-text-stripped snippets: Text and Document are empty on the
// snippets results carry, and callers hydrate them through SnippetText
// (the HTTP server does, so its responses are unchanged). A directory
// written by the earlier flat segment log (seg-*.log) is imported on
// open.
func WithStorage(dir string) Option {
	return func(c *config) { c.storageDir = dir }
}

// WithStorageSync selects the store's durability policy (see storage
// docs): 0 = OS-buffered (default), 1 = fsync every append, 2 = batched.
func WithStorageSync(policy int) Option {
	return func(c *config) { c.storageOpt.Sync = storage.SyncPolicy(policy) }
}

// WithTieredStorage tunes the store's tiers: the newest hotChunks
// sealed chunks stay resident in memory, the next warmChunks are mmap'd
// read-only, and older chunks go cold on disk (gzip-compressed when
// compress is set) with on-demand inflation. Values ≤ 0 select the
// defaults (4 hot, 16 warm). Requires WithStorage.
func WithTieredStorage(hotChunks, warmChunks int, compress bool) Option {
	return func(c *config) {
		t := &c.storageOpt.Tier
		t.HotChunks = hotChunks
		t.WarmChunks = warmChunks
		t.Compress = compress
	}
}

// WithTierChunkRows tunes the rows per chunk of the store (default
// 4096); mainly for tests and benchmarks that need tier transitions at
// small corpus sizes. Requires WithStorage.
func WithTierChunkRows(n int) Option {
	return func(c *config) { c.storageOpt.Tier.ChunkRows = n }
}

// WithTierColdCache tunes how many inflated cold chunks the store keeps
// in its LRU (default 2), and after how many faults a cold chunk is
// promoted back to the warm tier (default 4; negative disables).
// Requires WithStorage.
func WithTierColdCache(chunks, promoteAfter int) Option {
	return func(c *config) {
		t := &c.storageOpt.Tier
		t.ColdCache = chunks
		t.PromoteAfter = promoteAfter
	}
}

// WithRetireWindow enables sliding-window story retirement: a story
// whose newest evidence is more than w of event time behind the stream
// watermark is archived to the cold-story archive and evicted from the
// live engine, bounding steady-state memory under an infinite feed. New
// evidence matching an archived story reactivates it under its original
// ID. For query results over the active window to be unchanged by
// retirement, w must exceed both the alignment slack plus the feed's
// event-time disorder and the identification window. 0 (the default)
// disables retirement.
func WithRetireWindow(w time.Duration) Option {
	return func(c *config) { c.retire.Window = w }
}

// WithRetireDir places the cold-story archive in dir. Defaults to an
// "archive" subdirectory of the WithStorage directory; required when
// retirement is enabled without storage.
func WithRetireDir(dir string) Option {
	return func(c *config) { c.retire.Dir = dir }
}

// WithRetireGrace sets how long a reactivated story is held resident
// before it may retire again (thrash guard). Defaults to a quarter of
// the retirement window.
func WithRetireGrace(d time.Duration) Option {
	return func(c *config) { c.retire.Grace = d }
}

// WithRetireMinResident skips retirement entirely while fewer than n
// stories are resident; small working sets are not worth archiving.
func WithRetireMinResident(n int) Option {
	return func(c *config) { c.retire.MinResident = n }
}

// WithDedup sizes the per-source duplicate-delivery filter (0 disables).
func WithDedup(capacity int) Option {
	return func(c *config) { c.stream.DedupCapacity = capacity }
}

func defaultsConfig() *config {
	return &config{
		stream:    stream.DefaultOptions(),
		gazetteer: extract.DefaultGazetteer(),
	}
}
