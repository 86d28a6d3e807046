// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§5) on the synthetic stand-in datasets and prints
// them as text tables.
//
// Usage:
//
//	experiments [-exp f5|f6ab|f6c|rp|all] [-factor 0.25] [-queries 6]
//	            [-k 20] [-maxnodes 600000] [-seed 42] [-snapshot cachedir]
//
// -snapshot caches each built dataset graph+index as a memory-mapped
// snapshot file in the given directory, so repeated experiment runs skip
// graph conversion, indexing and prestige computation.
//
// Larger -factor and -queries approach the paper's scale at the cost of
// run time (the paper's DBLP corresponds to roughly -factor 11).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"banks/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	exp := flag.String("exp", "all", "experiment to run: f5, f6ab, f6c, rp, ablation or all")
	factor := flag.Float64("factor", 0.25, "dataset scale factor (1 ≈ 180k tuples)")
	queries := flag.Int("queries", 6, "workload queries per figure cell")
	k := flag.Int("k", 20, "answers requested per search")
	maxNodes := flag.Int("maxnodes", 600_000, "node-expansion budget per search (0 = unlimited)")
	seed := flag.Int64("seed", 42, "workload sampling seed")
	snapshot := flag.String("snapshot", "", "cache built graphs+indexes as snapshots in this directory")
	flag.Parse()

	cfg := experiments.Config{
		Factor:         *factor,
		QueriesPerCell: *queries,
		K:              *k,
		MaxNodes:       *maxNodes,
		Seed:           *seed,
		SnapshotDir:    *snapshot,
	}

	run := func(name string, f func() (string, error)) {
		start := time.Now()
		out, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
		fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	any := false
	if *exp == "f5" || *exp == "all" {
		any = true
		run("figure 5", func() (string, error) {
			rows, err := experiments.Figure5(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatFigure5(rows), nil
		})
	}
	if *exp == "f6ab" || *exp == "all" {
		any = true
		run("figure 6(a)/(b)", func() (string, error) {
			rows, err := experiments.Figure6AB(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatFigure6AB(rows), nil
		})
	}
	if *exp == "f6c" || *exp == "all" {
		any = true
		run("figure 6(c)", func() (string, error) {
			rows, err := experiments.Figure6C(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatFigure6C(rows), nil
		})
	}
	if *exp == "rp" || *exp == "all" {
		any = true
		run("recall/precision", func() (string, error) {
			rows, err := experiments.RecallPrecision(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatRecallPrecision(rows), nil
		})
	}
	if *exp == "ablation" || *exp == "all" {
		any = true
		run("ablations", func() (string, error) {
			rows, err := experiments.Ablations(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatAblations(rows), nil
		})
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want f5, f6ab, f6c, rp, ablation or all)\n", *exp)
		os.Exit(2)
	}
}
