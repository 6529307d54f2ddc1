package storage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/event"
)

// SyncPolicy controls when appends are fsynced to disk.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS; fastest, loses recent appends
	// on machine crash (process crash is still safe: writes go straight to
	// the page cache).
	SyncNever SyncPolicy = iota
	// SyncAlways fsyncs after every append; durable, slow.
	SyncAlways
	// SyncBatch fsyncs every Options.SyncEvery appends.
	SyncBatch
)

// Options configures a Store.
type Options struct {
	// Sync selects the durability policy (default SyncNever).
	Sync SyncPolicy
	// SyncEvery is the batch size for SyncBatch (default 256).
	SyncEvery int
	// Tier sizes the chunk tiers; its zero value selects the defaults
	// (see TierOptions).
	Tier TierOptions
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 256
	}
	return o
}

// Store is the embedded event repository. Snippets are persisted in
// fixed-row, CRC-framed chunk files that age through hot/warm/cold
// tiers (see TierStore); only per-chunk metadata stays resident, and
// per-snippet reads are served from whichever tier holds the chunk. A
// Store is safe for concurrent use.
type Store struct {
	mu           sync.RWMutex
	closed       bool
	recoveryDrop int64    // bytes dropped from torn tails at open
	warnings     []string // partial-corruption findings from recovery at open
	tier         *TierStore
}

// Open opens (creating if necessary) a store in dir, recovering the
// chunk files and importing any legacy flat-log segments (seg-*.log) a
// store written before the chunk layout left behind. Partial corruption
// does not fail the open; it is surfaced instead: torn tails from a
// previous crash are truncated (RecoveredDrop reports how many bytes
// were discarded), well-framed records whose payload no longer decodes
// are skipped, and every such finding is recorded in RecoveryWarnings
// and counted in the obs registry.
func Open(dir string, opts Options) (*Store, error) {
	span := metOpenLat.Start()
	defer span.End()
	opts = opts.withDefaults()
	t, err := openTierStore(dir, opts.Tier, opts.Sync, opts.SyncEvery)
	if err != nil {
		return nil, err
	}
	if err := t.importSegments(dir); err != nil {
		t.Close()
		return nil, err
	}
	return &Store{tier: t, warnings: t.warnings, recoveryDrop: t.dropped}, nil
}

// RecoveredDrop returns the number of torn-tail bytes truncated at Open.
func (s *Store) RecoveredDrop() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recoveryDrop
}

// RecoveryWarnings returns a copy of the partial-corruption findings
// from recovery at Open (torn tails truncated, undecodable records
// skipped, legacy segments imported) plus any read failure since. An
// empty list means the store opened clean.
func (s *Store) RecoveryWarnings() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.warnings...)
}

// Append validates and persists a snippet. The snippet must have a
// unique ID; duplicate IDs are rejected.
func (s *Store) Append(sn *event.Snippet) error {
	if err := sn.Validate(); err != nil {
		return err
	}
	span := metAppendLat.Start()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.tier.Has(sn.ID) {
		return fmt.Errorf("%w %d", ErrDuplicate, sn.ID)
	}
	if err := s.tier.Append(sn); err != nil {
		return err
	}
	span.End()
	return nil
}

// Get returns the snippet with the given ID, or nil if absent. The
// snippet is decoded from its chunk (a fresh copy per call); a read
// failure surfaces as nil plus a recovery warning.
func (s *Store) Get(id event.SnippetID) *event.Snippet {
	// Tier reads mutate LRU/promotion state; take the write lock.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	sn, err := s.tier.Get(id)
	if err != nil {
		s.warnings = append(s.warnings, err.Error())
		return nil
	}
	return sn
}

// SnippetText returns the display text and source document of a stored
// snippet. It is the hydration point for result rendering: the engine
// holds text-stripped snippets.
func (s *Store) SnippetText(id event.SnippetID) (text, document string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", "", false
	}
	sn, err := s.tier.Get(id)
	if err != nil || sn == nil {
		return "", "", false
	}
	return sn.Text, sn.Document, true
}

// Len returns the number of stored snippets.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.tier.Rows())
}

// Sources returns the distinct source IDs present, sorted.
func (s *Store) Sources() []event.SourceID {
	s.mu.RLock()
	out := s.tier.SourceIDs()
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// All returns every snippet in chronological order. The returned
// snippets carry entities, terms, and timestamps but have their display
// text and source document stripped — replay and identification never
// read them, and keeping 10M text bodies out of one slice is the whole
// point of the tiers. Callers that render text hydrate through
// SnippetText.
func (s *Store) All() []*event.Snippet {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var out []*event.Snippet
	err := s.tier.Scan(func(sn *event.Snippet) error {
		sn.Text, sn.Document = "", ""
		out = append(out, sn)
		return nil
	})
	if err != nil {
		s.warnings = append(s.warnings, err.Error())
	}
	s.mu.Unlock()
	sort.Sort(event.ByTimestamp(out))
	return out
}

// TierStats summarises chunk tier occupancy. ok is always true; the
// pair shape matches Pipeline.TierStats, which reports false when no
// store is configured.
func (s *Store) TierStats() (TierStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tier.Stats(), true
}

// TierManifestJSON serialises the live chunk manifest for checkpoint v3.
func (s *Store) TierManifestJSON() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tier.ManifestJSON()
}

// TierReconcile compares a checkpointed chunk manifest against the live
// chunk state, returning divergence findings (the chunks themselves
// already self-healed at Open).
func (s *Store) TierReconcile(manifest []byte) []string {
	if len(manifest) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.ReconcileManifest(manifest)
}

// Sync forces an fsync of the open chunk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.tier.Sync()
}

// Close syncs and closes the store. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return s.tier.Close()
}
