// Command bench is the repository's one serving-path benchmark. One process
// assembles the production path (gateway → pipeline → packing client → TCP
// → shard servers → store), drives Gateway.Sample with a seeded workload,
// checks every output against the plain in-memory sampler, and prints each
// metric by name with its unit. See README.md for the catalogue.
//
//	bash bench/run.sh                            # all workloads, end-to-end metrics
//	bash bench/run.sh -workload seed_lat -trace 1  # one workload, per-layer metrics + span file
//	bash bench/run.sh -selfcheck                 # the suite twice, gaps against bounds
//
// The last line of standard output of a run is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all of them, in catalogue order)")
	seed := flag.Int64("seed", 1, "input seed: graph, roots and ingest edges all derive from it")
	seconds := flag.Int("seconds", 20, "measurement time, split into 5 windows")
	traced := flag.Int("trace", 0, "1 runs traced: per-layer metrics and out/trace_<workload>.jsonl instead of end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and fail if any end-to-end metric moves by more than its bound")
	out := flag.String("out", "bench/out", "directory for span files")
	tmp := flag.String("tmp", os.TempDir(), "directory for the graph file and disk stores")
	flag.Parse()

	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workloadSpec{w}
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	fmt.Printf("# go %s, nproc %d, GOMAXPROCS %d, seed %d, %d s in %d windows, store dir %s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *seconds, nWindows, *tmp)

	base := runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *out, tmpDir: *tmp}
	if *selfcheck {
		if err := selfCheck(base, run); err != nil {
			fatal(err)
		}
		return
	}
	failed := false
	for _, w := range run {
		cfg := base
		cfg.w = w
		if _, err := runAndPrint(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runAndPrint runs one workload, prints its metrics and result line, and
// returns the metrics. The error is non-nil when the run's outputs were
// wrong, an invariant broke, or a metric could not be computed.
func runAndPrint(cfg runConfig) ([]metricValue, error) {
	start := time.Now()
	rep, err := runWorkload(context.Background(), cfg)
	if rep == nil {
		fmt.Println(resultLine(false, 0, 0, nil))
		return nil, err
	}
	var ms []metricValue
	if cfg.traced {
		ms = rep.perLayer()
	} else {
		var merr error
		if ms, merr = rep.endToEnd(err == nil); err == nil {
			err = merr
		}
	}
	printMetrics(os.Stdout, cfg.w.name, ms)
	attempted, bad := rep.counts()
	fmt.Printf("# %s: %d attempted, %d failed, %.1f s, set-up cycles %.3f s", cfg.w.name, attempted, bad, time.Since(start).Seconds(), rep.setupS)
	if rep.tracePath != "" {
		fmt.Printf(", %d spans in %s", len(rep.spans), rep.tracePath)
	}
	fmt.Println()
	for _, w := range rep.windows() {
		p50, _ := percentile(w.rec.latMS, 50, 1)
		fmt.Printf("# %s: window %.1f roots/s, p50 %.2f ms, %d requests, cpu %.0f ms\n", cfg.w.name,
			float64(w.rec.roots)/w.seconds(), p50, len(w.rec.latMS), float64(w.to.cpu-w.from.cpu)/1e6)
	}
	if rep.firstErr != nil {
		fmt.Printf("# %s: first failure: %v\n", cfg.w.name, rep.firstErr)
	}
	fmt.Println(resultLine(err == nil, attempted, bad, ms))
	return ms, err
}

// selfCheck runs the untraced suite twice on the same build and prints,
// per metric and workload, both values, how much worse the second is as a
// share of the first, and the bound. It fails if any gap, in either
// direction, exceeds its bound: the evidence that the bounds hold on this
// machine, and the tool for re-tuning one.
func selfCheck(base runConfig, run []workloadSpec) error {
	base.traced = false
	var sets [2]map[string][]metricValue
	for i := range sets {
		sets[i] = map[string][]metricValue{}
		for _, w := range run {
			cfg := base
			cfg.w = w
			ms, err := runAndPrint(cfg)
			if err != nil {
				return fmt.Errorf("%s (set %d): %w", w.name, i+1, err)
			}
			sets[i][w.name] = ms
		}
	}
	fmt.Printf("\n%-11s %-20s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	over := 0
	for _, w := range run {
		for j, d := range endToEnd {
			a, b := sets[0][w.name][j].value, sets[1][w.name][j].value
			gap := worsening(d, a, b)
			mark := ""
			if math.Abs(gap) > d.bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-11s %-20s %12.4f %12.4f %+7.2f%% %7.2f%%%s\n", w.name, d.name, a, b, 100*gap, 100*d.bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric x workload pairs moved by more than their bound on identical code", over)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
