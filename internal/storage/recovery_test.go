package storage

import (
	"os"
	"strings"
	"testing"

	"repro/internal/event"
)

// The recovery-warning tests drive the legacy import path: a migrated
// directory keeps its flat-era seg-*.log files next to the chunks, and
// every open rescans them. Import skips the records the chunks already
// hold, so any finding on a reopen comes from the corruption alone.

// appendToSegment appends raw bytes to a legacy segment file.
func appendToSegment(t *testing.T, dir string, idx int, data ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(segmentPath(dir, idx), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, d := range data {
		if _, err := f.Write(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryWarningsTornTail checks that a torn final record is not
// just silently truncated: the open must report what it dropped through
// both RecoveredDrop and the warning list.
func TestRecoveryWarningsTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RecoveryWarnings(); len(got) != 0 {
		t.Fatalf("fresh store has warnings: %v", got)
	}
	var sns []*event.Snippet
	for i := 1; i <= 3; i++ {
		sn := snip(event.SnippetID(i), "nyt", i, "UKR")
		sns = append(sns, sn)
		if err := st.Append(sn); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	writeLegacySegment(t, dir, 1, sns...)
	frame := appendRecord(nil, event.Encode(snip(4, "nyt", 4, "UKR")))
	appendToSegment(t, dir, 1, frame[:len(frame)-5]) // crash mid-write

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st2.Len())
	}
	if st2.RecoveredDrop() != int64(len(frame)-5) {
		t.Fatalf("RecoveredDrop = %d, want %d", st2.RecoveredDrop(), len(frame)-5)
	}
	warns := st2.RecoveryWarnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "torn-tail") {
		t.Fatalf("warnings = %v, want one torn-tail finding", warns)
	}
	// The returned slice is a copy; mutating it must not leak back.
	warns[0] = "mutated"
	if got := st2.RecoveryWarnings(); got[0] == "mutated" {
		t.Fatal("RecoveryWarnings aliases internal state")
	}
}

// TestRecoveryWarningsUndecodableRecord covers the logical-corruption
// path: a record whose frame (magic, length, CRC) is intact but whose
// payload is not a snippet. Unlike a torn tail this is not a crash
// artefact, so the import must keep scanning past it, skip just the bad
// record, and say so.
func TestRecoveryWarningsUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := snip(1, "nyt", 1, "UKR"), snip(2, "nyt", 2, "UKR")
	for _, sn := range []*event.Snippet{s1, s2} {
		if err := st.Append(sn); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Splice a well-framed garbage record between two valid ones.
	writeLegacySegment(t, dir, 1, s1)
	appendToSegment(t, dir, 1,
		appendRecord(nil, []byte("not a snippet payload")),
		appendRecord(nil, event.Encode(s2)))

	replayed := metReplayed.Value()
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open failed on logically corrupt record: %v", err)
	}
	defer st2.Close()
	if got := metReplayed.Value() - replayed; got != 3 {
		t.Fatalf("import scanned %d records, want 3 (it must read past the bad one)", got)
	}
	if st2.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (records after the bad one must survive)", st2.Len())
	}
	if st2.Get(2) == nil {
		t.Fatal("snippet appended after the corrupt record was lost")
	}
	if st2.RecoveredDrop() != 0 {
		t.Fatalf("RecoveredDrop = %d, want 0 (nothing was truncated)", st2.RecoveredDrop())
	}
	warns := st2.RecoveryWarnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "undecodable") {
		t.Fatalf("warnings = %v, want one undecodable-payload finding", warns)
	}
}

// TestRecoveryWarningsBothKinds stacks logical corruption and a torn
// tail in the same segment: both findings must be reported.
func TestRecoveryWarningsBothKinds(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := snip(1, "nyt", 1, "UKR")
	if err := st.Append(s1); err != nil {
		t.Fatal(err)
	}
	st.Close()

	writeLegacySegment(t, dir, 1, s1)
	frame := appendRecord(nil, event.Encode(snip(2, "nyt", 2, "UKR")))
	appendToSegment(t, dir, 1,
		appendRecord(nil, []byte{0xde, 0xad, 0xbe, 0xef}),
		frame[:len(frame)-1])

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st2.Len())
	}
	warns := st2.RecoveryWarnings()
	if len(warns) != 2 {
		t.Fatalf("warnings = %v, want both an undecodable and a torn-tail finding", warns)
	}
	joined := strings.Join(warns, "\n")
	if !strings.Contains(joined, "undecodable") || !strings.Contains(joined, "torn-tail") {
		t.Fatalf("warnings = %v, missing a finding kind", warns)
	}
}
