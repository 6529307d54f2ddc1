// Command perfbench is StoryPivot's benchmark: one process builds the
// system through its public constructors, drives one workload against
// it, checks the outputs and prints the metrics as a JSON line.
//
//	bash perfbench/run.sh --workload live --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "live, browse, backfill or routed")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = also run traced and report per-layer metrics instead of end-to-end ones")
		out      = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for stores and traces, inside the checkout")
	)
	flag.Parse()
	rep, err := run(*workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// nearest is a percentile for the diagnostic line, whatever its sample count.
func nearest(samples []float64, q float64) float64 {
	v, _ := percentile(samples, q)
	return v
}

func run(workload string, seed int64, seconds float64, traced bool, out string) (*report, error) {
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	senders := runtime.NumCPU()
	p, err := workloadParams(workload, seed, seconds, senders)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	env := environment(p)
	stamp, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(stamp))

	runOnce := func(traced bool) (*outcome, error) {
		if workload == "backfill" {
			return runBackfill(p, work, traced)
		}
		return runOnline(p, work, traced)
	}
	plain, err := runOnce(false)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: plain.attempted, Failed: plain.failed}
	problems := append([]string(nil), plain.problems...)
	if !traced {
		m, bad := endToEnd(p, plain)
		problems = append(problems, bad...)
		rep.Metrics = m
	} else {
		tr, err := runOnce(true)
		if err != nil {
			return nil, err
		}
		problems = append(problems, tr.problems...)
		rep.Attempted += tr.attempted
		rep.Failed += tr.failed
		rep.Metrics = perLayer(p, plain, tr)
		path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		summary := map[string]any{"env": env, "spans": summarize(tr.spans), "metrics": rep.Metrics}
		if err := writeTrace(path, tr.spans, summary); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops, latency ms p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
		len(plain.opMS), nearest(plain.opMS, 0.5), nearest(plain.opMS, 0.9), nearest(plain.opMS, 0.99), nearest(plain.opMS, 0.99999))
	if plain.errSample != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed, e.g. %s\n", plain.failed, plain.attempted, plain.errSample)
	}
	rep.Correct = len(problems) == 0
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:\n  "+strings.Join(problems, "\n  "))
		rep.Metrics = map[string]metric{}
	}
	return rep, nil
}
