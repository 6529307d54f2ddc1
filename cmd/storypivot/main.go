// Command storypivot runs the batch StoryPivot pipeline over a corpus —
// either a synthetic multi-source corpus (default) or a JSONL document
// file — and prints the resulting stories within and across sources.
//
// Usage:
//
//	storypivot [flags]
//	storypivot -docs documents.jsonl
//
// Each line of a -docs file is a JSON document:
//
//	{"source":"nyt","url":"http://...","title":"...","body":"...","published":"2014-07-17T00:00:00Z"}
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	storypivot "repro"
	"repro/internal/curated"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("storypivot: ")

	var (
		docsPath  = flag.String("docs", "", "JSONL document file (default: synthetic corpus)")
		gdeltPath = flag.String("gdelt", "", "GDELT 1.0 event-table TSV file to ingest")
		mode      = flag.String("mode", "temporal", "identification mode: temporal|complete")
		window    = flag.Duration("window", 14*24*time.Hour, "sliding window half-width (temporal mode)")
		refine    = flag.Bool("refine", true, "run story refinement after alignment")
		sketch    = flag.Bool("sketch", false, "use MinHash/LSH candidate retrieval")
		storeDir  = flag.String("store", "", "persist snippets to this event-store directory")
		storeDir2 = flag.String("store-dir", "", "alias for -store (matches the server binary's flag)")

		storeHot      = flag.Int("store-hot-chunks", 0, "store tier tuning: sealed chunks kept fully resident in memory (0 = default 4, requires -store)")
		storeWarm     = flag.Int("store-warm-mmap", 0, "store tier tuning: sealed chunks kept mmap'd read-only behind the hot tier (0 = default 16)")
		storeColdComp = flag.Bool("store-cold-compress", true, "store tier tuning: gzip-compress chunks demoted to the cold tier")
		topK          = flag.Int("top", 10, "number of integrated stories to print")
		profiles      = flag.Bool("profiles", false, "print per-source reporting profiles")
		trending      = flag.Bool("trending", false, "print trending stories at the corpus end")
		useCur        = flag.Bool("curated", false, "run on the curated 2014 corpus (5 real stories, 3 sources)")

		// Story retirement (-window here is the identification window ω,
		// so the retirement window gets its own flag).
		retireWindow      = flag.Duration("retire-window", 0, "story retirement window W of event time: stories with no new evidence for W are archived and evicted (0 = retirement disabled)")
		retireDir         = flag.String("retire-dir", "", "cold-story archive directory (default: <store>/archive)")
		retireGrace       = flag.Duration("retire-grace", 0, "holdback before a reactivated story may retire again (0 = W/4)")
		retireMinResident = flag.Int("retire-min-resident", 0, "skip retirement while at most this many stories are resident")

		// Synthetic corpus knobs.
		size    = flag.Int("events", 5000, "synthetic corpus size (snippets)")
		sources = flag.Int("sources", 10, "synthetic corpus sources")
		seed    = flag.Int64("seed", 1, "synthetic corpus seed")
	)
	flag.Parse()

	opts := []storypivot.Option{
		storypivot.WithWindow(*window),
		storypivot.WithRefinement(*refine),
		storypivot.WithSketchIndex(*sketch),
	}
	switch *mode {
	case "temporal":
		opts = append(opts, storypivot.WithMode(storypivot.ModeTemporal))
	case "complete":
		opts = append(opts, storypivot.WithMode(storypivot.ModeComplete))
	default:
		log.Fatalf("unknown -mode %q (want temporal or complete)", *mode)
	}
	dir := *storeDir
	if dir == "" {
		dir = *storeDir2
	}
	if dir != "" {
		opts = append(opts, storypivot.WithStorage(dir),
			storypivot.WithTieredStorage(*storeHot, *storeWarm, *storeColdComp))
	}
	if *retireWindow > 0 {
		opts = append(opts, storypivot.WithRetireWindow(*retireWindow))
		if *retireDir != "" {
			opts = append(opts, storypivot.WithRetireDir(*retireDir))
		}
		if *retireGrace > 0 {
			opts = append(opts, storypivot.WithRetireGrace(*retireGrace))
		}
		if *retireMinResident > 0 {
			opts = append(opts, storypivot.WithRetireMinResident(*retireMinResident))
		}
	}
	if *useCur {
		// The curated arcs span months with coverage gaps; use the
		// archival-friendly settings (see experiment E3 / EXPERIMENTS.md).
		opts = append(opts,
			storypivot.WithGazetteer(curated.Gazetteer()),
			storypivot.WithAlignSlack(60*24*time.Hour))
	}
	p, err := storypivot.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	var truth eval.Assignment
	switch {
	case *useCur:
		truth = eval.Assignment{}
		for _, cd := range curated.Corpus() {
			docCopy := cd.Doc
			sns, err := p.AddDocument(&docCopy)
			if err != nil {
				log.Printf("skipping %s: %v", cd.Doc.URL, err)
				continue
			}
			for _, sn := range sns {
				truth[sn.ID] = cd.Truth
			}
		}
		fmt.Printf("ingested the curated corpus (%d documents) in %v\n",
			len(curated.Corpus()), time.Since(start).Round(time.Millisecond))
	case *gdeltPath != "":
		f, err := os.Open(*gdeltPath)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := p.IngestGDELT(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %d GDELT events from %s (%d malformed, %d skipped) in %v\n",
			stats.Accepted, *gdeltPath, stats.Malformed, stats.Skipped,
			time.Since(start).Round(time.Millisecond))
	case *docsPath != "":
		n, err := loadDocuments(p, *docsPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %d documents from %s in %v\n", n, *docsPath, time.Since(start).Round(time.Millisecond))
	default:
		corpus := datagen.Generate(experiments.CorpusScale(*size, *sources, *seed))
		truth = experiments.TruthAssignment(corpus)
		accepted := p.IngestAll(corpus.Snippets)
		fmt.Printf("ingested %d/%d synthetic snippets (%d sources, seed %d) in %v\n",
			accepted, len(corpus.Snippets), *sources, *seed, time.Since(start).Round(time.Millisecond))
	}

	alignStart := time.Now()
	res := p.Align()
	fmt.Printf("alignment: %d integrated stories (%d multi-source, %d matches) in %v\n",
		len(res.Integrated()), len(res.MultiSource()), len(res.Matches()),
		time.Since(alignStart).Round(time.Millisecond))

	if truth != nil {
		pred := eval.FromIntegrated(res.Integrated())
		prf := eval.Pairwise(pred, truth)
		fmt.Printf("quality vs ground truth: P=%.3f R=%.3f F1=%.3f (B³=%.3f, NMI=%.3f)\n",
			prf.Precision, prf.Recall, prf.F1,
			eval.BCubed(pred, truth).F1, eval.NMI(pred, truth))
	}

	if *profiles {
		fmt.Println("\nsource profiles (timeliness / coverage / exclusivity):")
		for _, pr := range p.RankedSources() {
			fmt.Printf("  %-12s coverage=%.2f meanLag=%-9v firsts=%-5d exclusivity=%.2f snippets=%d\n",
				pr.Source, pr.Coverage, pr.MeanLag.Round(time.Minute), pr.FirstReports, pr.Exclusivity, pr.Snippets)
		}
	}
	if *trending {
		_, end := p.Engine().TimeRange()
		fmt.Println("\ntrending stories (last 72h of the corpus):")
		for i, tr := range p.Trending(end, 72*time.Hour) {
			if i >= 5 {
				break
			}
			fmt.Printf("  score=%.1f recent=%d %s\n", tr.Score, tr.Recent, tr.Story)
		}
	}

	fmt.Printf("\ntop %d integrated stories by size:\n", *topK)
	stories := res.Integrated()
	// Select the topK largest.
	for i := 0; i < len(stories); i++ {
		for j := i + 1; j < len(stories); j++ {
			if stories[j].Len() > stories[i].Len() {
				stories[i], stories[j] = stories[j], stories[i]
			}
		}
	}
	if len(stories) > *topK {
		stories = stories[:*topK]
	}
	for _, is := range stories {
		fmt.Printf("  %s\n", is)
		ents := ""
		freq := is.EntityFreq()
		shown := 0
		for e, c := range freq {
			if shown >= 5 {
				break
			}
			ents += fmt.Sprintf(" {%s,%d}", e, c)
			shown++
		}
		fmt.Printf("    entities:%s\n", ents)
	}
}

// loadDocuments streams a JSONL document file into the pipeline.
func loadDocuments(p *storypivot.Pipeline, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var d storypivot.Document
		if err := json.Unmarshal(line, &d); err != nil {
			return n, fmt.Errorf("line %d: %w", n+1, err)
		}
		if _, err := p.AddDocument(&d); err != nil {
			log.Printf("skipping %s: %v", d.URL, err)
			continue
		}
		n++
	}
	return n, sc.Err()
}
