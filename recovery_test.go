package storypivot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/storage"
)

// TestRecoveryWarningsCleanOpen: a pipeline over a healthy store reports
// nothing.
func TestRecoveryWarningsCleanOpen(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(datagen.Generate(experiments.CorpusScale(200, 2, 5)).Snippets)
	p.Close()

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.RecoveryWarnings(); len(got) != 0 {
		t.Fatalf("clean reopen produced warnings: %v", got)
	}
}

// TestRecoveryWarningsCorruptCheckpoint: a checkpoint that exists but
// cannot be honoured must (a) fall back to replay with identical results,
// (b) surface a warning, and (c) count the fallback in the obs registry.
func TestRecoveryWarningsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(400, 3, 7))
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	want := len(p.Result().Integrated())
	p.Close()

	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	failsBefore := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value()

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatalf("corrupt checkpoint broke New: %v", err)
	}
	defer p2.Close()
	if got := len(p2.Result().Integrated()); got != want {
		t.Fatalf("replay fallback produced %d stories, want %d", got, want)
	}
	warns := p2.RecoveryWarnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "checkpoint restore failed") {
		t.Fatalf("warnings = %v, want one checkpoint-restore finding", warns)
	}
	if got := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value() - failsBefore; got != 1 {
		t.Fatalf("restore-failure counter advanced by %d, want 1", got)
	}
}

// TestRecoveryWarningsMissingCheckpoint: never having written a
// checkpoint is the normal first-open state, not a failure — replay must
// happen without a warning and without counting a restore failure.
func TestRecoveryWarningsMissingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(datagen.Generate(experiments.CorpusScale(150, 2, 3)).Snippets)
	// Bypass Close (which writes a checkpoint): just close the store via
	// a fresh open over the same dir after dropping the handle.
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	failsBefore := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value()

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.RecoveryWarnings(); len(got) != 0 {
		t.Fatalf("missing checkpoint produced warnings: %v", got)
	}
	if got := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value(); got != failsBefore {
		t.Fatal("missing checkpoint counted as a restore failure")
	}
}

// TestRecoveryWarningsTruncatedSegment: a torn store tail surfaces the
// storage layer's finding through Pipeline.RecoveryWarnings, and the
// pipeline keeps working over the intact prefix.
func TestRecoveryWarningsTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(300, 2, 11))
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	p.Close()

	// Tear the final record of the open (newest) chunk mid-frame, and
	// remove the checkpoint so the reopen replays the (now shorter) log
	// rather than restoring counts that no longer match.
	os.Remove(filepath.Join(dir, "checkpoint.json"))
	chunks, err := filepath.Glob(filepath.Join(dir, "chunks", "chunk-*.log"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunks: %v", err)
	}
	last := chunks[len(chunks)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatalf("torn tail broke New: %v", err)
	}
	defer p2.Close()
	warns := p2.RecoveryWarnings()
	if len(warns) == 0 {
		t.Fatal("torn chunk tail produced no warnings")
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "torn-tail") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings = %v, want a torn-tail finding", warns)
	}
	// One snippet was lost to the tear; the survivors must still be
	// queryable and ingestion must still work.
	if got, want := p2.Engine().Ingested(), uint64(len(corpus.Snippets)-1); got != want {
		t.Fatalf("Ingested = %d, want %d", got, want)
	}
	// The caller's view is a copy.
	warns[0] = "mutated"
	if got := p2.RecoveryWarnings(); got[0] == "mutated" {
		t.Fatal("RecoveryWarnings aliases internal state")
	}
}

// retireRecoveryOpts opens a retirement-enabled pipeline over dir with
// the exact-mode settings the differential uses (the archive defaults to
// <dir>/archive, so it persists across reopens).
func retireRecoveryOpts(dir string) []Option {
	return append(retireDiffOpts(),
		WithStorage(dir),
		WithRetireWindow(21*24*time.Hour),
		WithRetireGrace(time.Hour))
}

// TestRecoveryKillDuringRetire: the process dies after retirements that
// no checkpoint ever covered (the snippet log is durable, the
// checkpoint predates both the newest snippets and the newest archive
// records). The reopen must detect the stale checkpoint, fall back to
// replay with the archive reset, rebuild the SAME retirement state, and
// still honour reactivation under the original story ID.
func TestRecoveryKillDuringRetire(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	p, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(retireSnip(1, "alpha", t0, "kepler", "telescope")); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(retireSnip(2, "alpha", t0.Add(time.Hour), "kepler")); err != nil {
		t.Fatal(err)
	}
	target := p.StoryOf("alpha", 1)

	// Retire the kepler story, then checkpoint: the checkpoint covers it.
	advanceWatermark(t, p, "alpha", 100, t0.Add(48*time.Hour), t0.Add(60*24*time.Hour), 48*time.Hour)
	cpArchived := p.Retire().Snapshot().Archived
	if cpArchived == 0 {
		t.Fatal("setup: nothing retired before the checkpoint")
	}
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint work the kill will lose from the checkpoint's view:
	// more snippets, more retirements.
	advanceWatermark(t, p, "alpha", 500, t0.Add(62*24*time.Hour), t0.Add(120*24*time.Hour), 48*time.Hour)
	if got := p.Retire().Snapshot().Archived; got <= cpArchived {
		t.Fatalf("no post-checkpoint retirement (archived %d at checkpoint, %d now)", cpArchived, got)
	}
	ingested := p.Engine().Ingested()
	// Kill: flush the snippet log, skip Close (no fresh checkpoint, the
	// archive handle just drops).
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("reopen after kill-during-retire broke New: %v", err)
	}
	defer p2.Close()
	if got := p2.Engine().Ingested(); got != ingested {
		t.Fatalf("replay ingested %d snippets, want %d", got, ingested)
	}
	// Replay re-ingests without settling; the first alignment publish
	// runs the retirement walk over everything that went cold.
	p2.Result()
	view := p2.Retire().Snapshot()
	if view.Archived == 0 {
		t.Fatalf("replay rebuilt no retirement state: %+v", view)
	}
	// The kepler story is archived again, not resident.
	if got, _ := p2.StoriesByEntityN("kepler", 0, -1); len(got) != 0 {
		t.Fatalf("retired story resident after recovery: %v", storyIDs(got))
	}
	// Reactivation across the restart keeps the original identity: story
	// IDs are replay-deterministic, so the pre-kill ID must come back.
	if err := p2.Ingest(retireSnip(9000, "alpha", t0.Add(72*time.Hour), "kepler")); err != nil {
		t.Fatal(err)
	}
	if got := p2.StoryOf("alpha", 9000); got != target {
		t.Fatalf("reactivated story %d after recovery, want original %d", got, target)
	}
	if p2.Retire().Snapshot().Reactivated == 0 {
		t.Fatal("reactivation after recovery not counted")
	}
}

// TestRecoveryArchiveReconcile: an archive record the checkpoint never
// heard of (a retirement that raced the crash, or a torn group whose
// commit was lost) must be dropped on restore — the story it names was
// rebuilt resident from its snippets, and serving the stale record too
// would fork its identity.
func TestRecoveryArchiveReconcile(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	p, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(retireSnip(1, "alpha", t0, "kepler", "telescope")); err != nil {
		t.Fatal(err)
	}
	advanceWatermark(t, p, "alpha", 100, t0.Add(48*time.Hour), t0.Add(60*24*time.Hour), 48*time.Hour)
	wantArchived := p.Retire().Snapshot().Archived
	if wantArchived == 0 {
		t.Fatal("setup: nothing retired")
	}
	if err := p.Close(); err != nil { // clean close: checkpoint covers the archive
		t.Fatal(err)
	}

	// Simulate the lost raced retirement: append a record for a story ID
	// the checkpoint still considers resident.
	arch, _, err := storage.OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	ghost := retireSnip(7777, "alpha", t0.Add(30*24*time.Hour), "ghost")
	st := event.RestoreStory(999999, "alpha", []*Snippet{ghost}, nil, nil,
		ghost.Timestamp, ghost.Timestamp, 1)
	if _, _, err := arch.AppendGroup(999999, t0.Add(60*24*time.Hour), []*event.Story{st}); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("reopen with stale archive record broke New: %v", err)
	}
	defer p2.Close()
	if len(p2.RecoveryWarnings()) != 0 {
		t.Fatalf("covered checkpoint produced warnings: %v", p2.RecoveryWarnings())
	}
	view := p2.Retire().Snapshot()
	if view.Archived != wantArchived {
		t.Fatalf("reconcile kept %d archived stories, want %d (stale record must drop)",
			view.Archived, wantArchived)
	}
	// The ghost record must not hijack matching evidence into a dead ID.
	if err := p2.Ingest(retireSnip(9001, "alpha", t0.Add(31*24*time.Hour), "ghost")); err != nil {
		t.Fatal(err)
	}
	if got := p2.StoryOf("alpha", 9001); got == 999999 {
		t.Fatal("stale archive record reactivated after reconcile")
	}
}
