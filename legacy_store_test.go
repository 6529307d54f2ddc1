package storypivot

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

// legacyFixtureCorpus regenerates the snippets behind
// testdata/legacy-flat-store. The fixture was written by a pipeline over
// the flat segment-log store that preceded the chunk layout:
// New(WithStorage(dir)), IngestAll of these snippets, Close — so the
// directory holds seg-00000001.log plus that pipeline's checkpoint.json.
func legacyFixtureCorpus() *datagen.Corpus {
	return datagen.Generate(experiments.CorpusScale(300, 3, 42))
}

// copyDir copies the regular files of src into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// partition renders the integrated stories as their snippet-ID sets,
// independent of story IDs and order.
func partition(p *Pipeline) []string {
	var out []string
	for _, is := range p.Result().Integrated() {
		var ids []int
		for _, m := range is.Members {
			for _, sn := range m.Snippets {
				ids = append(ids, int(sn.ID))
			}
		}
		sort.Ints(ids)
		out = append(out, fmt.Sprint(ids))
	}
	sort.Strings(out)
	return out
}

// TestLegacyFlatStoreMigration opens a directory written by the flat
// store: the open imports its segments into chunks exactly once, reports
// the import as its only finding, and rebuilds the same stories a
// store-less pipeline builds from the same snippets.
func TestLegacyFlatStoreMigration(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "legacy-flat-store"))
	corpus := legacyFixtureCorpus()

	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatalf("opening the legacy directory: %v", err)
	}
	warns := p.RecoveryWarnings()
	imported := regexp.MustCompile(`^imported (\d+) snippets`)
	if len(warns) != 1 || !imported.MatchString(warns[0]) {
		t.Fatalf("warnings = %q, want exactly one import finding", warns)
	}
	n, _ := strconv.Atoi(imported.FindStringSubmatch(warns[0])[1])
	if n != len(corpus.Snippets) {
		t.Fatalf("imported %d snippets, want %d", n, len(corpus.Snippets))
	}
	if got := p.store.Len(); got != n {
		t.Fatalf("store Len = %d after importing %d", got, n)
	}

	ref, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.IngestAll(corpus.Snippets)
	if got, want := partition(p), partition(ref); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("migrated partition differs from the store-less reference:\n got %v\nwant %v", got, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.RecoveryWarnings(); len(got) != 0 {
		t.Fatalf("second open reported %q, want no import and no warning", got)
	}
	if got := p2.store.Len(); got != n {
		t.Fatalf("store Len = %d after reopen, want %d", got, n)
	}
}
