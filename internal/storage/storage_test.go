package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func snip(id event.SnippetID, src event.SourceID, d int, ents ...event.Entity) *event.Snippet {
	s := &event.Snippet{
		ID: id, Source: src, Timestamp: day(d),
		Entities: ents,
		Terms:    []event.Term{{Token: "crash", Weight: 1}},
	}
	s.Normalize()
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	payload := []byte("hello snippets")
	frame := appendRecord(nil, payload)
	got, err := readRecord(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("readRecord: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	// Subsequent read hits EOF cleanly.
	r := bytes.NewReader(frame)
	readRecord(r, nil)
	if _, err := readRecord(r, nil); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRecordCorruption(t *testing.T) {
	payload := []byte("data")
	frame := appendRecord(nil, payload)

	// Flip a payload byte -> checksum error.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xff
	if _, err := readRecord(bytes.NewReader(bad), nil); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("flipped payload: %v", err)
	}
	// Bad magic.
	bad2 := append([]byte(nil), frame...)
	bad2[0] ^= 0xff
	if _, err := readRecord(bytes.NewReader(bad2), nil); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("bad magic: %v", err)
	}
	// Torn header.
	if _, err := readRecord(bytes.NewReader(frame[:5]), nil); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("torn header: %v", err)
	}
	// Torn payload.
	if _, err := readRecord(bytes.NewReader(frame[:len(frame)-2]), nil); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("torn payload: %v", err)
	}
	// Unknown version.
	bad3 := append([]byte(nil), frame...)
	bad3[4] = 99
	if _, err := readRecord(bytes.NewReader(bad3), nil); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("bad version: %v", err)
	}
}

func TestStoreAppendAndIndexes(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Append(snip(1, "nyt", 17, "UKR", "MAL")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(snip(2, "wsj", 18, "UKR")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(snip(3, "nyt", 16, "RUS")); err != nil { // out of order
		t.Fatal(err)
	}

	if st.Len() != 3 {
		t.Fatalf("Len = %d", st.Len())
	}
	if got := st.Get(2); got == nil || got.Source != "wsj" {
		t.Fatalf("Get(2) = %+v", got)
	}
	if got := st.Get(99); got != nil {
		t.Fatal("Get(99) should be nil")
	}
	srcs := st.Sources()
	if len(srcs) != 2 || srcs[0] != "nyt" || srcs[1] != "wsj" {
		t.Fatalf("Sources = %v", srcs)
	}
	// Chronological order despite out-of-order append.
	var ids []event.SnippetID
	for _, s := range st.All() {
		ids = append(ids, s.ID)
	}
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("All order = %v", ids)
	}
}

func TestStoreRejectsInvalidAndDuplicates(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(&event.Snippet{ID: 1}); err == nil {
		t.Fatal("invalid snippet accepted")
	}
	if err := st.Append(snip(1, "nyt", 17, "UKR")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(snip(1, "nyt", 18, "UKR")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestStoreReopenRecoversData(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := st.Append(snip(event.SnippetID(i), "nyt", i, "UKR")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 10 {
		t.Fatalf("recovered Len = %d, want 10", st2.Len())
	}
	got := st2.Get(7)
	if got == nil || !got.Timestamp.Equal(day(7)) || got.Entities[0] != "UKR" {
		t.Fatalf("recovered snippet 7 = %+v", got)
	}
	// Appends continue with no duplicate complaints.
	if err := st2.Append(snip(11, "wsj", 20, "RUS")); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		st.Append(snip(event.SnippetID(i), "nyt", i, "UKR"))
	}
	path := chunkRawPath(filepath.Join(dir, "chunks"), st.tier.open.index)
	st.Close()

	// Simulate a crash mid-write: append a truncated frame to the open
	// chunk.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := appendRecord(nil, event.Encode(snip(6, "nyt", 6, "UKR")))
	f.Write(full[:len(full)-3]) // torn record
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5 (torn record dropped)", st2.Len())
	}
	if st2.RecoveredDrop() == 0 {
		t.Error("RecoveredDrop should report truncated bytes")
	}
	// The torn bytes must be gone from disk so new appends start clean.
	if err := st2.Append(snip(6, "nyt", 6, "UKR")); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Len() != 6 {
		t.Fatalf("after re-append Len = %d, want 6", st3.Len())
	}
}

func TestStoreClosedErrors(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.Append(snip(1, "nyt", 1, "UKR")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close: %v", err)
	}
	if err := st.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close: %v", err)
	}
	if err := st.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close: %v", err)
	}
}

func TestStoreSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways, SyncBatch} {
		t.Run(fmt.Sprintf("policy%d", pol), func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{Sync: pol, SyncEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 1; i <= 10; i++ {
				if err := st.Append(snip(event.SnippetID(i), "nyt", i, "UKR")); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreConcurrentAppendAndRead(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 100; i++ {
				id := event.SnippetID(g*1000 + i + 1)
				if err := st.Append(snip(id, event.SourceID(fmt.Sprintf("s%d", g)), i%28+1, "UKR")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				st.All()
				st.Get(event.SnippetID(i + 1))
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 400 {
		t.Fatalf("Len = %d, want 400", st.Len())
	}
}

func TestStoreIsolationFromCallerMutation(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := snip(1, "nyt", 17, "UKR")
	st.Append(s)
	s.Entities[0] = "XXX" // caller mutates after append
	if got := st.Get(1); got.Entities[0] != "UKR" {
		t.Fatal("store shares memory with caller's snippet")
	}
}

func TestListSegmentsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "seg-notanumber.log"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, segmentPrefix+"00000002"+segmentSuffix), nil, 0o644)
	got, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("listSegments = %v", got)
	}
}

// TestReplaySkipsDuplicateRecords covers legacy import idempotency: the
// same record in two flat-era segments is stored once, and reopening
// imports nothing again.
func TestReplaySkipsDuplicateRecords(t *testing.T) {
	dir := t.TempDir()
	writeLegacySegment(t, dir, 1, snip(1, "nyt", 1, "UKR"))
	writeLegacySegment(t, dir, 2, snip(1, "nyt", 1, "UKR"))
	for open := 0; open < 2; open++ {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != 1 {
			t.Fatalf("open %d: Len with duplicated segments = %d, want 1", open, st.Len())
		}
		st.Close()
	}
}

// writeLegacySegment writes a flat-era seg-*.log holding the snippets,
// framed exactly as the pre-chunk store wrote them.
func writeLegacySegment(t *testing.T, dir string, idx int, sns ...*event.Snippet) {
	t.Helper()
	var buf []byte
	for _, sn := range sns {
		buf = appendRecord(buf, event.Encode(sn))
	}
	if err := os.WriteFile(segmentPath(dir, idx), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreQuickRoundTrip persists randomly generated snippets and checks
// that a reopened store returns byte-identical contents.
func TestStoreQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		st, err := Open(dir, Options{Tier: TierOptions{ChunkRows: 4}})
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(20)
		want := make(map[event.SnippetID]*event.Snippet, n)
		for i := 0; i < n; i++ {
			s := &event.Snippet{
				ID:        event.SnippetID(i + 1),
				Source:    event.SourceID(fmt.Sprintf("s%d", rng.Intn(3))),
				Timestamp: day(1 + rng.Intn(28)),
				Entities:  []event.Entity{event.Entity(fmt.Sprintf("e%d", rng.Intn(5)))},
				Terms:     []event.Term{{Token: fmt.Sprintf("t%d", rng.Intn(9)), Weight: rng.Float64() + 0.1}},
				Text:      fmt.Sprintf("text-%d", rng.Int()),
			}
			s.Normalize()
			want[s.ID] = s
			if err := st.Append(s); err != nil {
				return false
			}
		}
		st.Close()
		st2, err := Open(dir, Options{})
		if err != nil {
			return false
		}
		defer st2.Close()
		if st2.Len() != n {
			return false
		}
		for id, w := range want {
			g := st2.Get(id)
			if g == nil || !reflect.DeepEqual(g, w) {
				t.Logf("seed %d: snippet %d mismatch:\n got %+v\nwant %+v", seed, id, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAll(t *testing.T) {
	st, _ := Open(t.TempDir(), Options{})
	defer st.Close()
	st.Append(snip(2, "nyt", 5, "A"))
	st.Append(snip(1, "nyt", 3, "A"))
	all := st.All()
	if len(all) != 2 || all[0].ID != 1 || all[1].ID != 2 {
		t.Fatalf("All = %v", all)
	}
}
