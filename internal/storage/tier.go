package storage

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/obs"
)

// Tiered chunk storage, the Store's only layout. Snippets live in
// fixed-row chunk files under <dir>/chunks/: every append goes into the
// open chunk (the same CRC framing as the archive and DLQ segments, so a
// crash can only tear the final record), and sealed chunks migrate
// through three tiers as they age:
//
//	hot   — the newest sealed chunks, raw bytes resident in memory;
//	warm  — older chunks mmap'd read-only (page cache owns the bytes);
//	cold  — the long tail, optionally gzip-compressed on disk
//	        (chunk-%08d.spz) and inflated on demand into a small LRU.
//
// Only per-chunk metadata (ID range, row count, event-time bounds) stays
// resident for cold chunks, so process RSS is bounded by the hot+warm
// budgets instead of the corpus size. A manifest (chunks/manifest.json)
// caches sealed-chunk metadata so reopen does not have to decode the
// whole corpus; the chunk files themselves stay the source of truth, and
// any divergence (crash mid-demotion, deleted manifest) is reconciled at
// open by rescanning the affected chunk.
const (
	chunkPrefix     = "chunk-"
	chunkRawSuffix  = ".log"
	chunkColdSuffix = ".spz"
	manifestName    = "manifest.json"
)

// Chunk tier states.
const (
	tierHot = iota
	tierWarm
	tierCold
)

// TierOptions sizes the chunk tiers. The zero value of every field
// selects its default; an all-hot configuration (HotChunks large enough
// to hold every sealed chunk) keeps the whole corpus resident.
type TierOptions struct {
	// ChunkRows is the number of snippets per sealed chunk (default 4096).
	ChunkRows int
	// HotChunks is how many sealed chunks stay decoded in memory
	// (default 4). The open chunk is always resident on top of this.
	HotChunks int
	// WarmChunks is how many chunks past the hot tier stay mmap'd
	// read-only (default 16).
	WarmChunks int
	// Compress gzips chunks demoted past the warm tier. Off, cold chunks
	// stay raw on disk and are read on demand.
	Compress bool
	// ColdCache is the LRU capacity, in chunks, for inflated cold chunks
	// (default 2).
	ColdCache int
	// PromoteAfter promotes a cold chunk back to the warm tier after this
	// many faults since it went cold (default 4; negative disables).
	PromoteAfter int
}

func (o TierOptions) withDefaults() TierOptions {
	if o.ChunkRows <= 0 {
		o.ChunkRows = 4096
	}
	if o.HotChunks <= 0 {
		o.HotChunks = 4
	}
	if o.WarmChunks <= 0 {
		o.WarmChunks = 16
	}
	if o.ColdCache <= 0 {
		o.ColdCache = 2
	}
	if o.PromoteAfter == 0 {
		o.PromoteAfter = 4
	}
	return o
}

// Tier-store instrumentation.
var (
	metTierHot = obs.GetGauge("storypivot_store_hot_chunks",
		"chunks resident in the hot tier (including the open chunk)")
	metTierWarm = obs.GetGauge("storypivot_store_warm_chunks",
		"chunks mmap'd in the warm tier")
	metTierCold = obs.GetGauge("storypivot_store_cold_chunks",
		"chunks demoted to the cold tier")
	metTierFaults = obs.GetCounter("storypivot_store_chunk_faults_total",
		"cold-chunk reads that had to load (and possibly inflate) a chunk")
	metTierPromotions = obs.GetCounter("storypivot_store_chunk_promotions_total",
		"cold chunks promoted back to the warm tier")
	metTierDemotions = obs.GetCounter("storypivot_store_chunk_demotions_total",
		"chunk demotions (hot→warm and warm→cold)")
	metTierColdReadLat = obs.GetHistogram("storypivot_store_cold_read_seconds",
		"latency of snippet reads served from the cold tier")
)

// chunk is the resident metadata (and, for hot/warm chunks, the bytes)
// of one chunk file.
type chunk struct {
	index int
	state int
	// sealed is false only for the single open chunk.
	sealed bool
	rows   int
	// dense chunks hold exactly the consecutive IDs firstID..lastID in
	// order, so a row is located by subtraction and no per-row ID list
	// is kept resident. Extractor-assigned IDs are monotonic, so almost
	// every chunk is dense; sparse chunks (out-of-order external IDs)
	// keep ids.
	firstID event.SnippetID
	lastID  event.SnippetID
	dense   bool
	ids     []event.SnippetID
	// Event-time bounds (unix nanos) for range pruning.
	minTS, maxTS int64
	// data is the raw framed bytes: a heap copy for hot chunks, an mmap
	// region for warm chunks, nil for cold chunks (cold bytes live in
	// the store's inflate LRU).
	data   []byte
	mapped bool
	offs   []uint32
	// rawBytes is the sealed raw file size (manifest-validated on open).
	rawBytes   int64
	compressed bool
	faults     int
	sources    []event.SourceID
}

func (c *chunk) hasID(id event.SnippetID) (int, bool) {
	if c.rows == 0 || id < c.firstID || id > c.lastID {
		return 0, false
	}
	if c.dense {
		return int(id - c.firstID), true
	}
	for i, cid := range c.ids {
		if cid == id {
			return i, true
		}
	}
	return 0, false
}

// inflated is one entry of the cold-chunk LRU.
type inflated struct {
	idx  int
	data []byte
	offs []uint32
}

// TierStore manages the chunk files of a tiered store. All methods are
// called with the owning Store's lock held; TierStore itself does no
// locking.
type TierStore struct {
	dir  string
	opts TierOptions
	sync SyncPolicy
	// syncEvery batches fsyncs under SyncBatch.
	syncEvery int
	sinceSync int

	chunks   []*chunk // ascending index; last is the open chunk
	open     *chunk
	openFile *os.File
	frameBuf []byte
	// lookup holds the sealed non-empty chunks in seal order. While
	// ordered is true their ID ranges are disjoint and ascending
	// (monotone extractor IDs, the common case), so a binary search
	// finds the owning chunk; out-of-order IDs drop to a linear scan.
	lookup  []*chunk
	ordered bool

	lru []inflated

	rows     int64
	sources  map[event.SourceID]int64
	warnings []string
	dropped  int64

	faults, promotions, demotions uint64
}

func chunkRawPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", chunkPrefix, index, chunkRawSuffix))
}

func chunkColdPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", chunkPrefix, index, chunkColdSuffix))
}

// chunkManifest is the JSON shape of chunks/manifest.json and of the
// checkpoint v3 tier manifest.
type chunkManifest struct {
	Version int         `json:"version"`
	Rows    int64       `json:"rows"`
	Chunks  []chunkMeta `json:"chunks"`
}

type chunkMeta struct {
	Index      int      `json:"index"`
	Rows       int      `json:"rows"`
	FirstID    uint64   `json:"first_id"`
	LastID     uint64   `json:"last_id"`
	Dense      bool     `json:"dense"`
	IDs        []uint64 `json:"ids,omitempty"`
	MinTS      int64    `json:"min_ts"`
	MaxTS      int64    `json:"max_ts"`
	RawBytes   int64    `json:"raw_bytes"`
	Compressed bool     `json:"compressed,omitempty"`
	State      string   `json:"state"`
	Sources    []string `json:"sources,omitempty"`
}

func tierStateName(state int) string {
	switch state {
	case tierHot:
		return "hot"
	case tierWarm:
		return "warm"
	default:
		return "cold"
	}
}

func (c *chunk) meta() chunkMeta {
	m := chunkMeta{
		Index:      c.index,
		Rows:       c.rows,
		FirstID:    uint64(c.firstID),
		LastID:     uint64(c.lastID),
		Dense:      c.dense,
		MinTS:      c.minTS,
		MaxTS:      c.maxTS,
		RawBytes:   c.rawBytes,
		Compressed: c.compressed,
		State:      tierStateName(c.state),
	}
	if !c.dense {
		m.IDs = make([]uint64, len(c.ids))
		for i, id := range c.ids {
			m.IDs[i] = uint64(id)
		}
	}
	for _, src := range c.sources {
		m.Sources = append(m.Sources, string(src))
	}
	return m
}

// scanFrames walks the CRC framing of raw chunk bytes, returning the
// frame offsets and the number of leading valid bytes. A torn or corrupt
// tail simply ends the scan (valid < len(data)); that is the crash
// signature of the open chunk.
func scanFrames(data []byte) (offs []uint32, valid int) {
	off := 0
	for off+headerSize <= len(data) {
		if binary.LittleEndian.Uint32(data[off:off+4]) != recordMagic || data[off+4] != recordVersion {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off+5 : off+9]))
		if n > maxRecordSize || off+headerSize+n > len(data) {
			break
		}
		payload := data[off+headerSize : off+headerSize+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+9:off+13]) {
			break
		}
		offs = append(offs, uint32(off))
		off += headerSize + n
	}
	return offs, off
}

// framePayload returns the payload of the frame starting at offs[row].
func framePayload(data []byte, off uint32) []byte {
	n := binary.LittleEndian.Uint32(data[off+5 : off+9])
	return data[off+headerSize : uint32(headerSize)+off+n]
}

// openTierStore opens (creating if necessary) the chunk directory under
// dir, reconciling any crash leftovers: *.tmp files are removed, a chunk
// present both raw and compressed keeps whichever copy is intact
// (preferring raw), and the open chunk's torn tail is truncated exactly
// like a segment's.
func openTierStore(dir string, opts TierOptions, sync SyncPolicy, syncEvery int) (*TierStore, error) {
	cdir := filepath.Join(dir, "chunks")
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return nil, err
	}
	t := &TierStore{
		dir:       cdir,
		opts:      opts.withDefaults(),
		sync:      sync,
		syncEvery: syncEvery,
		sources:   make(map[event.SourceID]int64),
		ordered:   true,
	}
	raw, cold, err := t.listChunks()
	if err != nil {
		return nil, err
	}
	manifest := t.loadManifest()
	indices := unionSorted(raw, cold)
	for _, idx := range indices {
		last := idx == indices[len(indices)-1]
		c, err := t.recoverChunk(idx, raw[idx], cold[idx], manifest[idx], last)
		if err != nil {
			return nil, err
		}
		if c == nil {
			continue // unrecoverable chunk; warning already recorded
		}
		t.addChunkLocked(c)
	}
	if t.open == nil || t.open.sealed {
		if err := t.startChunkLocked(t.nextIndex()); err != nil {
			return nil, err
		}
	} else {
		// Reopen the recovered open chunk for appending.
		f, err := os.OpenFile(chunkRawPath(t.dir, t.open.index), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		t.openFile = f
	}
	if err := t.rebalanceLocked(); err != nil {
		return nil, err
	}
	t.updateGauges()
	return t, nil
}

// listChunks returns the raw (.log) and compressed (.spz) chunk indices
// present, removing stale temp files on the way.
func (t *TierStore) listChunks() (raw, cold map[int]bool, err error) {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return nil, nil, err
	}
	raw, cold = make(map[int]bool), make(map[int]bool)
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(t.dir, name))
			continue
		}
		if !strings.HasPrefix(name, chunkPrefix) {
			continue
		}
		var set map[int]bool
		switch {
		case strings.HasSuffix(name, chunkRawSuffix):
			set = raw
		case strings.HasSuffix(name, chunkColdSuffix):
			set = cold
		default:
			continue
		}
		numStr := strings.TrimSuffix(strings.TrimSuffix(
			strings.TrimPrefix(name, chunkPrefix), chunkRawSuffix), chunkColdSuffix)
		n, err := strconv.Atoi(numStr)
		if err != nil {
			continue
		}
		set[n] = true
	}
	return raw, cold, nil
}

func unionSorted(a, b map[int]bool) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// loadManifest reads chunks/manifest.json, returning metadata keyed by
// chunk index. A missing or corrupt manifest is not an error: the chunk
// files are the source of truth and are rescanned instead.
func (t *TierStore) loadManifest() map[int]*chunkMeta {
	out := make(map[int]*chunkMeta)
	data, err := os.ReadFile(filepath.Join(t.dir, manifestName))
	if err != nil {
		return out
	}
	var m chunkManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.warnings = append(t.warnings, fmt.Sprintf("chunk manifest unreadable (%v); rescanning chunks", err))
		return out
	}
	for i := range m.Chunks {
		cm := m.Chunks[i]
		out[cm.Index] = &cm
	}
	return out
}

// recoverChunk rebuilds one chunk's resident state from its on-disk
// files, applying the crash rules. last marks the highest-index chunk,
// which is the only one whose raw file may legitimately have a torn tail.
func (t *TierStore) recoverChunk(idx int, hasRaw, hasCold bool, meta *chunkMeta, last bool) (*chunk, error) {
	rawPath := chunkRawPath(t.dir, idx)
	coldPath := chunkColdPath(t.dir, idx)
	if hasRaw {
		data, err := os.ReadFile(rawPath)
		if err != nil {
			return nil, err
		}
		offs, valid := scanFrames(data)
		if hasCold {
			// Crash between a demotion's compress and its raw unlink, or
			// between a promotion's raw rematerialise and its spz unlink.
			// The raw copy, when intact, is authoritative.
			if valid == len(data) && (meta == nil || len(offs) >= meta.Rows) {
				os.Remove(coldPath)
				hasCold = false
			} else {
				os.Remove(rawPath)
				t.warnings = append(t.warnings, fmt.Sprintf(
					"chunk %d: raw copy torn at %d/%d bytes; using compressed copy", idx, valid, len(data)))
				return t.recoverColdChunk(idx, coldPath, meta)
			}
		}
		if valid < len(data) {
			if !last && meta != nil {
				t.warnings = append(t.warnings, fmt.Sprintf(
					"chunk %d: sealed chunk truncated from %d to %d rows", idx, meta.Rows, len(offs)))
			}
			if err := os.Truncate(rawPath, int64(valid)); err != nil {
				return nil, fmt.Errorf("storage: truncating torn chunk %s: %w", rawPath, err)
			}
			metReplayTornBytes.Add(uint64(len(data) - valid))
			t.dropped += int64(len(data) - valid)
			if last {
				t.warnings = append(t.warnings, fmt.Sprintf(
					"chunk %d: truncated %d torn-tail bytes", idx, len(data)-valid))
			}
			data = data[:valid]
		}
		c := t.buildChunk(idx, data, offs, meta)
		c.rawBytes = int64(valid)
		c.sealed = !last || c.rows >= t.opts.ChunkRows
		c.state = tierHot
		if c.sealed && c.dense {
			c.ids = nil
		}
		return c, nil
	}
	if hasCold {
		return t.recoverColdChunk(idx, coldPath, meta)
	}
	if meta != nil {
		t.warnings = append(t.warnings, fmt.Sprintf(
			"chunk %d: manifest entry has no chunk file; %d rows lost", idx, meta.Rows))
	}
	return nil, nil
}

// recoverColdChunk rebuilds a compressed-only chunk. With a matching
// manifest entry it stays on disk untouched; otherwise it is inflated
// once to rebuild its metadata.
func (t *TierStore) recoverColdChunk(idx int, coldPath string, meta *chunkMeta) (*chunk, error) {
	if meta != nil && meta.Rows > 0 {
		c := metaChunk(idx, meta)
		c.compressed = true
		c.sealed = true
		c.state = tierCold
		return c, nil
	}
	data, err := inflateFile(coldPath)
	if err != nil {
		t.warnings = append(t.warnings, fmt.Sprintf("chunk %d: compressed chunk unreadable (%v); dropped", idx, err))
		os.Remove(coldPath)
		return nil, nil
	}
	offs, valid := scanFrames(data)
	if valid < len(data) {
		t.warnings = append(t.warnings, fmt.Sprintf(
			"chunk %d: compressed chunk torn at %d/%d bytes", idx, valid, len(data)))
		t.dropped += int64(len(data) - valid)
		data = data[:valid]
	}
	c := t.buildChunk(idx, data, offs, nil)
	c.rawBytes = int64(valid)
	c.compressed = true
	c.sealed = true
	c.state = tierCold
	c.data, c.offs = nil, nil
	if c.dense {
		c.ids = nil
	}
	return c, nil
}

// metaChunk materialises resident chunk state from a manifest entry
// without touching the chunk file.
func metaChunk(idx int, m *chunkMeta) *chunk {
	c := &chunk{
		index:    idx,
		rows:     m.Rows,
		firstID:  event.SnippetID(m.FirstID),
		lastID:   event.SnippetID(m.LastID),
		dense:    m.Dense,
		minTS:    m.MinTS,
		maxTS:    m.MaxTS,
		rawBytes: m.RawBytes,
	}
	if !m.Dense {
		c.ids = make([]event.SnippetID, len(m.IDs))
		for i, id := range m.IDs {
			c.ids[i] = event.SnippetID(id)
		}
	}
	for _, s := range m.Sources {
		c.sources = append(c.sources, event.SourceID(s))
	}
	return c
}

// buildChunk decodes raw chunk bytes into resident chunk state. When a
// trusted manifest entry matches the file size, the per-row decode is
// skipped and metadata comes from the manifest.
func (t *TierStore) buildChunk(idx int, data []byte, offs []uint32, meta *chunkMeta) *chunk {
	if meta != nil && meta.RawBytes == int64(len(data)) && meta.Rows == len(offs) {
		c := metaChunk(idx, meta)
		c.data = append([]byte(nil), data...)
		c.offs = offs
		return c
	}
	c := &chunk{index: idx, dense: true, data: append([]byte(nil), data...), offs: offs}
	for _, off := range offs {
		sn, err := event.Decode(framePayload(data, off))
		if err != nil {
			// A well-framed record whose payload no longer decodes: skip
			// it but keep the row so offsets stay aligned with frames.
			metReplayCorrupt.Inc()
			t.warnings = append(t.warnings, fmt.Sprintf("chunk %d: undecodable record skipped", idx))
			sn = &event.Snippet{}
		}
		c.noteRow(sn)
	}
	return c
}

// noteRow folds one decoded snippet into the chunk's metadata.
func (c *chunk) noteRow(sn *event.Snippet) {
	ts := sn.Timestamp.UnixNano()
	if c.rows == 0 {
		c.firstID, c.lastID = sn.ID, sn.ID
		c.minTS, c.maxTS = ts, ts
	} else {
		if sn.ID != c.lastID+1 {
			c.dense = false
		}
		if sn.ID < c.firstID {
			c.firstID = sn.ID
		}
		if sn.ID > c.lastID {
			c.lastID = sn.ID
		}
		if ts < c.minTS {
			c.minTS = ts
		}
		if ts > c.maxTS {
			c.maxTS = ts
		}
	}
	c.ids = append(c.ids, sn.ID)
	c.rows++
	found := false
	for _, s := range c.sources {
		if s == sn.Source {
			found = true
			break
		}
	}
	if !found && sn.Source != "" {
		c.sources = append(c.sources, sn.Source)
	}
}

func (t *TierStore) addChunkLocked(c *chunk) {
	t.chunks = append(t.chunks, c)
	if c.sealed {
		t.noteSealed(c)
	} else {
		t.open = c
	}
	t.rows += int64(c.rows)
	for _, src := range c.sources {
		t.sources[src] += 0 // presence only; counts refined on append
	}
}

// noteSealed registers a sealed chunk with the lookup structures.
func (t *TierStore) noteSealed(c *chunk) {
	if c.rows == 0 {
		return
	}
	if n := len(t.lookup); n > 0 && c.firstID <= t.lookup[n-1].lastID {
		// While ordered, earlier ranges all end below the previous
		// chunk's lastID, so comparing against it alone is sufficient.
		t.ordered = false
	}
	t.lookup = append(t.lookup, c)
}

func (t *TierStore) nextIndex() int {
	if len(t.chunks) == 0 {
		return 0
	}
	return t.chunks[len(t.chunks)-1].index + 1
}

// startChunkLocked creates and opens a fresh chunk for appending.
func (t *TierStore) startChunkLocked(idx int) error {
	f, err := os.OpenFile(chunkRawPath(t.dir, idx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	c := &chunk{index: idx, dense: true, state: tierHot}
	t.chunks = append(t.chunks, c)
	t.open = c
	t.openFile = f
	return nil
}

// Has reports whether id is stored in any chunk.
func (t *TierStore) Has(id event.SnippetID) bool {
	_, _, ok := t.locate(id)
	return ok
}

// locate finds the chunk and row holding id. The open chunk is probed
// first (recent IDs dominate), then the sealed chunks — by binary
// search over their disjoint ascending ranges in the common case.
func (t *TierStore) locate(id event.SnippetID) (*chunk, int, bool) {
	if t.open != nil {
		if row, ok := t.open.hasID(id); ok {
			return t.open, row, true
		}
	}
	if t.ordered {
		i := sort.Search(len(t.lookup), func(i int) bool { return t.lookup[i].firstID > id })
		if i == 0 {
			return nil, 0, false
		}
		c := t.lookup[i-1]
		row, ok := c.hasID(id)
		return c, row, ok
	}
	for i := len(t.lookup) - 1; i >= 0; i-- {
		if row, ok := t.lookup[i].hasID(id); ok {
			return t.lookup[i], row, true
		}
	}
	return nil, 0, false
}

// Append frames and persists one snippet into the open chunk, sealing
// and rebalancing the tiers when the chunk fills.
func (t *TierStore) Append(sn *event.Snippet) error {
	t.frameBuf = appendRecord(t.frameBuf[:0], event.AppendEncode(nil, sn))
	if _, err := t.openFile.Write(t.frameBuf); err != nil {
		return err
	}
	switch t.sync {
	case SyncAlways:
		if err := t.openFile.Sync(); err != nil {
			return err
		}
		metSyncs.Inc()
	case SyncBatch:
		if t.sinceSync++; t.sinceSync >= t.syncEvery {
			if err := t.openFile.Sync(); err != nil {
				return err
			}
			metSyncs.Inc()
			t.sinceSync = 0
		}
	}
	c := t.open
	c.offs = append(c.offs, uint32(len(c.data)))
	c.data = append(c.data, t.frameBuf...)
	c.rawBytes = int64(len(c.data))
	c.noteRow(sn)
	t.rows++
	t.sources[sn.Source]++
	metAppends.Inc()
	metAppendBytes.Add(uint64(len(t.frameBuf)))
	if c.rows >= t.opts.ChunkRows {
		return t.sealOpenLocked()
	}
	return nil
}

// sealOpenLocked seals the open chunk, starts a fresh one, rebalances
// the tiers, and persists the manifest.
func (t *TierStore) sealOpenLocked() error {
	c := t.open
	if err := t.openFile.Sync(); err != nil {
		return err
	}
	if err := t.openFile.Close(); err != nil {
		return err
	}
	t.openFile = nil
	c.sealed = true
	if c.dense {
		c.ids = nil
	}
	t.noteSealed(c)
	if err := t.startChunkLocked(c.index + 1); err != nil {
		return err
	}
	if err := t.rebalanceLocked(); err != nil {
		return err
	}
	t.updateGauges()
	return t.writeManifest()
}

// rebalanceLocked enforces the hot and warm budgets, demoting the oldest
// chunks of an over-budget tier.
func (t *TierStore) rebalanceLocked() error {
	var hot, warm []*chunk
	for _, c := range t.chunks {
		if !c.sealed {
			continue
		}
		switch c.state {
		case tierHot:
			hot = append(hot, c)
		case tierWarm:
			warm = append(warm, c)
		}
	}
	for len(hot) > t.opts.HotChunks {
		c := hot[0]
		hot = hot[1:]
		if err := t.demoteHotToWarm(c); err != nil {
			return err
		}
		warm = append(warm, c)
	}
	// Demotion order for warm is by age (chunk index), not promotion
	// recency: a promoted chunk younger than the warm window's tail
	// should not evict newer chunks.
	sort.Slice(warm, func(i, j int) bool { return warm[i].index < warm[j].index })
	for len(warm) > t.opts.WarmChunks {
		c := warm[0]
		warm = warm[1:]
		if err := t.demoteWarmToCold(c); err != nil {
			return err
		}
	}
	return nil
}

// demoteHotToWarm swaps a chunk's resident heap copy for a read-only
// mmap of its raw file.
func (t *TierStore) demoteHotToWarm(c *chunk) error {
	f, err := os.Open(chunkRawPath(t.dir, c.index))
	if err != nil {
		return err
	}
	data, mapped, err := mmapFile(f, c.rawBytes)
	f.Close()
	if err != nil {
		return err
	}
	c.data = data
	c.mapped = mapped
	c.state = tierWarm
	t.demotions++
	metTierDemotions.Inc()
	return nil
}

// demoteWarmToCold releases a chunk's mapping and, when compression is
// enabled, gzips the raw file (tmp + fsync + rename, then unlink raw) so
// only the compressed copy remains.
func (t *TierStore) demoteWarmToCold(c *chunk) error {
	if c.mapped {
		if err := munmapChunk(c.data); err != nil {
			return err
		}
	}
	c.data = nil
	c.mapped = false
	c.offs = nil
	c.state = tierCold
	c.faults = 0
	if t.opts.Compress && !c.compressed {
		if err := t.compressChunk(c); err != nil {
			return err
		}
	}
	t.demotions++
	metTierDemotions.Inc()
	return nil
}

func (t *TierStore) compressChunk(c *chunk) error {
	rawPath := chunkRawPath(t.dir, c.index)
	data, err := os.ReadFile(rawPath)
	if err != nil {
		return err
	}
	coldPath := chunkColdPath(t.dir, c.index)
	if err := AtomicWrite(coldPath, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if _, err := zw.Write(data); err != nil {
			return err
		}
		return zw.Close()
	}); err != nil {
		return err
	}
	c.compressed = true
	// Crash window: both copies exist until this unlink; open prefers
	// the intact raw copy and re-deletes the spz.
	return os.Remove(rawPath)
}

func inflateFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// coldBytes returns a cold chunk's raw bytes and offsets, serving from
// the inflate LRU when possible and faulting the chunk in otherwise.
// Enough faults promote the chunk back to the warm tier.
func (t *TierStore) coldBytes(c *chunk) ([]byte, []uint32, error) {
	for i, e := range t.lru {
		if e.idx == c.index {
			// Refresh recency.
			t.lru = append(append(t.lru[:i:i], t.lru[i+1:]...), e)
			return e.data, e.offs, nil
		}
	}
	span := metTierColdReadLat.Start()
	var data []byte
	var err error
	if c.compressed {
		data, err = inflateFile(chunkColdPath(t.dir, c.index))
	} else {
		data, err = os.ReadFile(chunkRawPath(t.dir, c.index))
	}
	if err != nil {
		return nil, nil, err
	}
	offs, valid := scanFrames(data)
	data = data[:valid]
	t.faults++
	metTierFaults.Inc()
	t.lru = append(t.lru, inflated{idx: c.index, data: data, offs: offs})
	if len(t.lru) > t.opts.ColdCache {
		t.lru = append(t.lru[:0:0], t.lru[1:]...)
	}
	span.End()
	c.faults++
	if t.opts.PromoteAfter > 0 && c.faults >= t.opts.PromoteAfter {
		if err := t.promote(c, data, offs); err != nil {
			return nil, nil, err
		}
	}
	return data, offs, nil
}

// promote moves a cold chunk back to the warm tier: the raw file is
// rematerialised if only the compressed copy exists (tmp + fsync +
// rename, then unlink spz), then mmap'd read-only.
func (t *TierStore) promote(c *chunk, data []byte, offs []uint32) error {
	rawPath := chunkRawPath(t.dir, c.index)
	if c.compressed {
		if err := AtomicWrite(rawPath, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); err != nil {
			return err
		}
		c.compressed = false
		// Crash window mirror of demotion: both copies exist until the
		// unlink; open prefers the raw copy.
		if err := os.Remove(chunkColdPath(t.dir, c.index)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	f, err := os.Open(rawPath)
	if err != nil {
		return err
	}
	mdata, mapped, err := mmapFile(f, int64(len(data)))
	f.Close()
	if err != nil {
		return err
	}
	c.data = mdata
	c.mapped = mapped
	c.offs = offs
	c.state = tierWarm
	c.faults = 0
	// Drop the promoted chunk from the inflate LRU; it is served from
	// the mapping now.
	for i, e := range t.lru {
		if e.idx == c.index {
			t.lru = append(t.lru[:i:i], t.lru[i+1:]...)
			break
		}
	}
	t.promotions++
	metTierPromotions.Inc()
	if err := t.rebalanceLocked(); err != nil {
		return err
	}
	t.updateGauges()
	return t.writeManifest()
}

// rowBytes returns the raw bytes and frame offset table for a chunk,
// whatever its tier.
func (t *TierStore) rowBytes(c *chunk) ([]byte, []uint32, error) {
	if c.state != tierCold && c.data != nil {
		if c.offs == nil {
			offs, _ := scanFrames(c.data)
			c.offs = offs
		}
		return c.data, c.offs, nil
	}
	return t.coldBytes(c)
}

// Get decodes and returns the snippet with the given ID, or nil.
func (t *TierStore) Get(id event.SnippetID) (*event.Snippet, error) {
	c, row, ok := t.locate(id)
	if !ok {
		return nil, nil
	}
	data, offs, err := t.rowBytes(c)
	if err != nil {
		return nil, err
	}
	if row >= len(offs) {
		return nil, fmt.Errorf("storage: chunk %d row %d beyond recovered frames", c.index, row)
	}
	sn, err := event.Decode(framePayload(data, offs[row]))
	if err != nil {
		return nil, fmt.Errorf("storage: chunk %d row %d: %w", c.index, row, err)
	}
	return sn, nil
}

// Scan invokes fn with every stored snippet in chunk order. The decoded
// snippet is freshly allocated and owned by fn.
func (t *TierStore) Scan(fn func(*event.Snippet) error) error {
	for _, c := range t.chunks {
		if c.rows == 0 {
			continue
		}
		data, offs, err := t.rowBytes(c)
		if err != nil {
			return err
		}
		for _, off := range offs {
			sn, derr := event.Decode(framePayload(data, off))
			if derr != nil {
				continue // counted at open
			}
			if err := fn(sn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows returns the number of stored snippets.
func (t *TierStore) Rows() int64 { return t.rows }

// SourceIDs returns the distinct sources seen, unsorted.
func (t *TierStore) SourceIDs() []event.SourceID {
	out := make([]event.SourceID, 0, len(t.sources))
	for src := range t.sources {
		out = append(out, src)
	}
	return out
}

func (t *TierStore) updateGauges() {
	hot, warm, cold := t.tierCounts()
	metTierHot.Set(int64(hot))
	metTierWarm.Set(int64(warm))
	metTierCold.Set(int64(cold))
}

func (t *TierStore) tierCounts() (hot, warm, cold int) {
	for _, c := range t.chunks {
		switch c.state {
		case tierHot:
			hot++
		case tierWarm:
			warm++
		default:
			cold++
		}
	}
	return hot, warm, cold
}

func (t *TierStore) manifest() chunkManifest {
	m := chunkManifest{Version: 1, Rows: t.rows}
	for _, c := range t.chunks {
		if !c.sealed {
			continue
		}
		m.Chunks = append(m.Chunks, c.meta())
	}
	return m
}

func (t *TierStore) writeManifest() error {
	m := t.manifest()
	return AtomicWrite(filepath.Join(t.dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(m)
	})
}

// ManifestJSON serialises the current chunk manifest (for checkpoint v3).
func (t *TierStore) ManifestJSON() ([]byte, error) {
	return json.Marshal(t.manifest())
}

// ReconcileManifest compares a previously checkpointed manifest against
// the live chunk state and returns human-readable divergence findings.
// The chunk files have already self-healed at open; the findings only
// surface what changed behind the checkpoint's back, mirroring the
// retire manager's archive reconcile.
func (t *TierStore) ReconcileManifest(data []byte) []string {
	var cp chunkManifest
	if err := json.Unmarshal(data, &cp); err != nil {
		return []string{fmt.Sprintf("checkpoint tier manifest unreadable: %v", err)}
	}
	live := make(map[int]*chunk, len(t.chunks))
	for _, c := range t.chunks {
		live[c.index] = c
	}
	var out []string
	for _, cm := range cp.Chunks {
		c, ok := live[cm.Index]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf(
				"tier reconcile: checkpointed chunk %d (%d rows) missing on disk", cm.Index, cm.Rows))
		case c.rows != cm.Rows:
			out = append(out, fmt.Sprintf(
				"tier reconcile: chunk %d has %d rows, checkpoint recorded %d", cm.Index, c.rows, cm.Rows))
		}
	}
	return out
}

// Stats summarises the tier state for tests and benchmarks.
type TierStats struct {
	Hot, Warm, Cold               int
	Rows                          int64
	Faults, Promotions, Demotions uint64
}

func (t *TierStore) Stats() TierStats {
	hot, warm, cold := t.tierCounts()
	return TierStats{
		Hot: hot, Warm: warm, Cold: cold,
		Rows:   t.rows,
		Faults: t.faults, Promotions: t.promotions, Demotions: t.demotions,
	}
}

// Sync fsyncs the open chunk.
func (t *TierStore) Sync() error { return t.openFile.Sync() }

// Close syncs the open chunk, releases every mapping, and persists the
// manifest.
func (t *TierStore) Close() error {
	var first error
	if t.openFile != nil {
		if err := t.openFile.Sync(); err != nil && first == nil {
			first = err
		}
		if err := t.openFile.Close(); err != nil && first == nil {
			first = err
		}
		t.openFile = nil
	}
	for _, c := range t.chunks {
		if c.mapped {
			if err := munmapChunk(c.data); err != nil && first == nil {
				first = err
			}
			c.data = nil
			c.mapped = false
		}
	}
	if err := t.writeManifest(); err != nil && first == nil {
		first = err
	}
	return first
}

// importSegments replays legacy flat-log segments (seg-*.log), written
// by stores that predate the chunk layout, into the chunk store so the
// corpus carries forward. Records already present in a chunk are
// skipped, making the import idempotent; the segment files stay where
// they are. Like any replay it reports what it could not carry: a
// well-framed record whose payload does not decode is skipped and
// counted, and a torn tail is truncated and counted, each with a
// per-segment warning.
func (t *TierStore) importSegments(dir string) error {
	indices, err := listSegments(dir)
	if err != nil {
		return err
	}
	imported := 0
	for _, idx := range indices {
		corrupt := 0
		dropped, err := scanSegment(segmentPath(dir, idx), func(payload []byte) error {
			metReplayed.Inc()
			sn, derr := event.Decode(payload)
			if derr != nil {
				corrupt++
				metReplayCorrupt.Inc()
				return nil
			}
			if t.Has(sn.ID) {
				return nil
			}
			imported++
			return t.Append(sn)
		})
		if err != nil {
			return err
		}
		if corrupt > 0 {
			t.warnings = append(t.warnings, fmt.Sprintf(
				"segment %d: skipped %d well-framed records with undecodable payloads", idx, corrupt))
		}
		if dropped > 0 {
			metReplayTornBytes.Add(uint64(dropped))
			t.warnings = append(t.warnings, fmt.Sprintf(
				"segment %d: truncated %d torn-tail bytes", idx, dropped))
			t.dropped += dropped
		}
	}
	if imported > 0 {
		t.warnings = append(t.warnings, fmt.Sprintf(
			"imported %d snippets from %d legacy segment files", imported, len(indices)))
	}
	return nil
}
