package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
)

// tsnip builds a snippet with display text, the payload the tiers exist
// to keep off-heap.
func tsnip(id event.SnippetID, d int) *event.Snippet {
	s := snip(id, "ap", d, event.Entity("kiev"))
	s.Text = fmt.Sprintf("snippet %d body text with some padding to compress", id)
	s.Document = fmt.Sprintf("doc-%d", id)
	return s
}

func tinyTier() TierOptions {
	return TierOptions{ChunkRows: 4, HotChunks: 1, WarmChunks: 2, Compress: true, ColdCache: 1, PromoteAfter: -1}
}

func openTiered(t *testing.T, dir string, opts TierOptions) *Store {
	t.Helper()
	st, err := Open(dir, Options{Tier: opts})
	if err != nil {
		t.Fatalf("Open tiered: %v", err)
	}
	return st
}

func TestTierAppendGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	defer st.Close()
	const n = 50
	for i := 1; i <= n; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), 1+i%20)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	for i := 1; i <= n; i++ {
		sn := st.Get(event.SnippetID(i))
		if sn == nil {
			t.Fatalf("Get(%d) = nil", i)
		}
		if want := fmt.Sprintf("snippet %d body text with some padding to compress", i); sn.Text != want {
			t.Fatalf("Get(%d).Text = %q, want %q", i, sn.Text, want)
		}
		text, doc, ok := st.SnippetText(event.SnippetID(i))
		if !ok || text != sn.Text || doc != sn.Document {
			t.Fatalf("SnippetText(%d) = %q,%q,%v", i, text, doc, ok)
		}
	}
	if err := st.Append(tsnip(3, 3)); err == nil {
		t.Fatal("duplicate append accepted")
	}
	stats, ok := st.TierStats()
	if !ok {
		t.Fatal("TierStats reported non-tiered")
	}
	// 50 rows / 4 per chunk = 12 sealed + open. Budgets: 1 hot sealed
	// (+ open), 2 warm, rest cold.
	if stats.Cold == 0 || stats.Warm == 0 || stats.Hot == 0 {
		t.Fatalf("expected all three tiers populated: %+v", stats)
	}
	if stats.Warm > 2 {
		t.Fatalf("warm budget exceeded: %+v", stats)
	}
	// Compressed cold chunks must actually exist (and their raw twins not).
	spz, _ := filepath.Glob(filepath.Join(dir, "chunks", "*.spz"))
	if len(spz) == 0 {
		t.Fatal("no compressed chunk files on disk")
	}
}

func TestTierAllStripsTextButKeepsMetadata(t *testing.T) {
	st := openTiered(t, t.TempDir(), tinyTier())
	defer st.Close()
	for i := 1; i <= 20; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	all := st.All()
	if len(all) != 20 {
		t.Fatalf("All len = %d", len(all))
	}
	for i, sn := range all {
		if sn.Text != "" || sn.Document != "" {
			t.Fatalf("All()[%d] carries display text in tiered mode", i)
		}
		if len(sn.Entities) == 0 || len(sn.Terms) == 0 {
			t.Fatalf("All()[%d] lost identification metadata", i)
		}
		if i > 0 && all[i-1].Timestamp.After(sn.Timestamp) {
			t.Fatal("All() not chronological")
		}
	}
}

// TestTieredAccessorsMatchFlat drives a corpus through the store and
// asserts every accessor answers as the appended input says it must
// (modulo the documented text-stripping of All).
func TestTieredAccessorsMatchFlat(t *testing.T) {
	tiered := openTiered(t, t.TempDir(), tinyTier())
	defer tiered.Close()

	srcs := []event.SourceID{"ap", "bbc", "rt"}
	var input []*event.Snippet
	for i := 1; i <= 60; i++ {
		sn := snip(event.SnippetID(i), srcs[i%3], 1+i%25, event.Entity(fmt.Sprintf("e%d", i%5)))
		sn.Text = fmt.Sprintf("text %d", i)
		input = append(input, sn)
		if err := tiered.Append(sn.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(sns []*event.Snippet) []event.SnippetID {
		out := make([]event.SnippetID, len(sns))
		for i, sn := range sns {
			out[i] = sn.ID
		}
		return out
	}
	eq := func(name string, a, b []event.SnippetID) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d results", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: position %d: %d vs %d", name, i, a[i], b[i])
			}
		}
	}
	chrono := append([]*event.Snippet(nil), input...)
	sort.Sort(event.ByTimestamp(chrono))
	eq("All", ids(chrono), ids(tiered.All()))
	if tiered.Len() != len(input) {
		t.Fatalf("Len = %d, want %d", tiered.Len(), len(input))
	}
	for _, want := range input {
		if got := tiered.Get(want.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%d) = %+v, want %+v", want.ID, got, want)
		}
	}
	if got, want := fmt.Sprint(tiered.Sources()), fmt.Sprint(srcs); got != want {
		t.Fatalf("Sources: %s vs %s", got, want)
	}
}

func TestTierReopenCleanAndAfterCrash(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 30; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openTiered(t, dir, tinyTier())
	if st.Len() != 30 {
		t.Fatalf("after clean reopen Len = %d", st.Len())
	}
	for i := 1; i <= 35; i++ {
		if i <= 30 {
			if sn := st.Get(event.SnippetID(i)); sn == nil || sn.Document != fmt.Sprintf("doc-%d", i) {
				t.Fatalf("Get(%d) after reopen = %+v", i, sn)
			}
			continue
		}
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop the store without Close — manifest is stale (written
	// at the last seal), the open chunk has unsealed rows.
	st.tier.openFile.Sync()
	st.tier.openFile.Close()

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	if st.Len() != 35 {
		t.Fatalf("after crash reopen Len = %d, want 35", st.Len())
	}
	for i := 1; i <= 35; i++ {
		if sn := st.Get(event.SnippetID(i)); sn == nil {
			t.Fatalf("Get(%d) = nil after crash reopen", i)
		}
	}
}

func TestTierTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 10; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	openIdx := st.tier.open.index
	st.Close()
	// Tear the open chunk: a partial frame after the last good record.
	path := chunkRawPath(filepath.Join(dir, "chunks"), openIdx)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x31, 0x56, 0x50, 0x53, 0x01, 0xff}) // magic + version + torn length
	f.Close()

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	if st.Len() != 10 {
		t.Fatalf("Len after torn tail = %d, want 10", st.Len())
	}
	if st.RecoveredDrop() == 0 {
		t.Fatal("torn-tail bytes not reported")
	}
	found := false
	for _, w := range st.RecoveryWarnings() {
		if strings.Contains(w, "torn-tail") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no torn-tail warning in %q", st.RecoveryWarnings())
	}
	// The store must still accept appends into the repaired chunk.
	if err := st.Append(tsnip(11, 11)); err != nil {
		t.Fatal(err)
	}
}

// TestTierKillDuringDemotion simulates a crash in the demotion window
// where the compressed copy has been published but the raw file not yet
// unlinked: both copies exist. Open must keep the intact raw copy and
// delete the compressed one.
func TestTierKillDuringDemotion(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 30; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Find a compressed cold chunk and resurrect its raw twin, as if the
	// crash hit between rename and unlink.
	var cold *chunk
	for _, c := range st.tier.chunks {
		if c.state == tierCold && c.compressed {
			cold = c
			break
		}
	}
	if cold == nil {
		t.Fatal("no compressed cold chunk to test with")
	}
	st.Close()
	cdir := filepath.Join(dir, "chunks")
	raw, err := inflateFile(chunkColdPath(cdir, cold.index))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chunkRawPath(cdir, cold.index), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from the same crash must be swept too.
	os.WriteFile(filepath.Join(cdir, "chunk-99999999.spz.tmp"), []byte("junk"), 0o644)

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	// Open keeps the intact raw copy (the tier rebalance may re-compress
	// it afterwards); the crash invariant is that exactly one copy
	// survives, never both.
	_, rawErr := os.Stat(chunkRawPath(cdir, cold.index))
	_, coldErr := os.Stat(chunkColdPath(cdir, cold.index))
	if rawErr == nil && coldErr == nil {
		t.Fatal("both raw and compressed copies survived recovery")
	}
	if rawErr != nil && coldErr != nil {
		t.Fatal("chunk lost entirely during recovery")
	}
	if _, err := os.Stat(filepath.Join(cdir, "chunk-99999999.spz.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept at open")
	}
	if st.Len() != 30 {
		t.Fatalf("Len = %d after demotion-crash recovery", st.Len())
	}
	for i := 1; i <= 30; i++ {
		if sn := st.Get(event.SnippetID(i)); sn == nil || sn.Text == "" {
			t.Fatalf("Get(%d) lost payload after demotion-crash recovery", i)
		}
	}
}

// TestTierKillDuringPromotion simulates the mirror crash during
// promotion: the raw file was rematerialised but is torn (partial
// write survived only via the directory, e.g. a truncated page), while
// the compressed copy is still present. Open must fall back to the
// compressed copy and drop the damaged raw file.
func TestTierKillDuringPromotion(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 30; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	var cold *chunk
	for _, c := range st.tier.chunks {
		if c.state == tierCold && c.compressed {
			cold = c
			break
		}
	}
	if cold == nil {
		t.Fatal("no compressed cold chunk to test with")
	}
	st.Close()
	cdir := filepath.Join(dir, "chunks")
	raw, err := inflateFile(chunkColdPath(cdir, cold.index))
	if err != nil {
		t.Fatal(err)
	}
	// Torn rematerialisation: only half the raw bytes made it.
	if err := os.WriteFile(chunkRawPath(cdir, cold.index), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	if _, err := os.Stat(chunkRawPath(cdir, cold.index)); !os.IsNotExist(err) {
		t.Fatal("torn raw copy not removed in favour of compressed copy")
	}
	if st.Len() != 30 {
		t.Fatalf("Len = %d after promotion-crash recovery", st.Len())
	}
	for i := 1; i <= 30; i++ {
		if sn := st.Get(event.SnippetID(i)); sn == nil || sn.Text == "" {
			t.Fatalf("Get(%d) lost payload after promotion-crash recovery", i)
		}
	}
}

func TestTierPromotionAfterRepeatedFaults(t *testing.T) {
	opts := tinyTier()
	opts.PromoteAfter = 2
	st := openTiered(t, t.TempDir(), opts)
	defer st.Close()
	for i := 1; i <= 40; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := st.TierStats()
	if before.Cold == 0 {
		t.Fatalf("no cold chunks: %+v", before)
	}
	// Hammer the oldest rows; the LRU holds one chunk, so alternating
	// between two cold chunks faults every time until promotion.
	for pass := 0; pass < 4; pass++ {
		for _, id := range []event.SnippetID{1, 9} {
			if sn := st.Get(id); sn == nil {
				t.Fatalf("Get(%d) = nil", id)
			}
		}
	}
	after, _ := st.TierStats()
	if after.Faults == 0 {
		t.Fatalf("cold reads recorded no faults: %+v", after)
	}
	if after.Promotions == 0 {
		t.Fatalf("repeated faults did not promote: %+v", after)
	}
}

func TestTierSparseIDs(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	ids := []event.SnippetID{100, 7, 350, 12, 90, 200, 5, 999, 404, 1}
	for i, id := range ids {
		if err := st.Append(tsnip(id, 1+i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	for _, id := range ids {
		if sn := st.Get(id); sn == nil || sn.ID != id {
			t.Fatalf("Get(%d) after sparse reopen = %+v", id, sn)
		}
	}
	if st.Get(55) != nil {
		t.Fatal("Get of absent ID in sparse range returned a snippet")
	}
	if err := st.Append(tsnip(100, 3)); err == nil {
		t.Fatal("sparse duplicate accepted")
	}
}

func TestTierImportsLegacySegments(t *testing.T) {
	dir := t.TempDir()
	var sns []*event.Snippet
	for i := 1; i <= 12; i++ {
		sns = append(sns, tsnip(event.SnippetID(i), i))
	}
	// A pre-chunk store rotated its log; spread the corpus over two
	// segments.
	writeLegacySegment(t, dir, 1, sns[:7]...)
	writeLegacySegment(t, dir, 2, sns[7:]...)

	st := openTiered(t, dir, tinyTier())
	if st.Len() != 12 {
		t.Fatalf("tiered open imported %d snippets, want 12", st.Len())
	}
	for i := 1; i <= 12; i++ {
		if sn := st.Get(event.SnippetID(i)); sn == nil || sn.Text == "" {
			t.Fatalf("imported snippet %d unreadable", i)
		}
	}
	st.Close()
	// Second tiered open must not duplicate the imported records.
	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	if st.Len() != 12 {
		t.Fatalf("re-import duplicated records: Len = %d", st.Len())
	}
}

func TestTierManifestReconcile(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 20; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := st.TierManifestJSON()
	if err != nil || len(manifest) == 0 {
		t.Fatalf("TierManifestJSON: %v", err)
	}
	if w := st.TierReconcile(manifest); len(w) != 0 {
		t.Fatalf("self-reconcile produced findings: %q", w)
	}
	st.Close()
	// Remove a sealed chunk behind the checkpoint's back; reconcile must
	// surface it as a divergence finding.
	os.Remove(chunkColdPath(filepath.Join(dir, "chunks"), 0))
	os.Remove(chunkRawPath(filepath.Join(dir, "chunks"), 0))
	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	w := st.TierReconcile(manifest)
	if len(w) == 0 {
		t.Fatal("reconcile missed a vanished chunk")
	}
	if !strings.Contains(strings.Join(w, " "), "chunk 0") {
		t.Fatalf("findings do not name the chunk: %q", w)
	}
}

// TestTierConcurrentHammer mixes ingest, point reads (forcing cold
// faults and promotions), text hydration, and range scans; run under
// -race this is the tier manager's concurrency gate.
func TestTierConcurrentHammer(t *testing.T) {
	opts := tinyTier()
	opts.PromoteAfter = 3
	st := openTiered(t, t.TempDir(), opts)
	defer st.Close()
	for i := 1; i <= 40; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), 1+i%20)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: keeps sealing chunks, driving demotions
		defer wg.Done()
		for i := 41; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Append(tsnip(event.SnippetID(i), 1+i%20)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) { // readers: cold faults, hydration, scans
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := event.SnippetID(1 + (i*7+g*13)%40)
				if sn := st.Get(id); sn == nil {
					t.Errorf("Get(%d) = nil", id)
					return
				}
				if _, _, ok := st.SnippetText(id); !ok {
					t.Errorf("SnippetText(%d) missing", id)
					return
				}
				if i%50 == 0 {
					st.All()
					st.Len()
					st.TierStats()
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
}
