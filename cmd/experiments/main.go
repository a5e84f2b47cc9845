// Command experiments regenerates every experiment table of the
// reproduction (E1-E10, F4 and the ablations A1-A4, defined in
// internal/experiments) and prints them to stdout. With -out it also writes
// the tables as a markdown fragment.
//
// Usage:
//
//	experiments [-quick] [-max-peers N] [-only E4] [-parallel N] [-seed S] [-out results.md]
//
// Sweeps fan their cells out over -parallel workers (default: all cores;
// 1 reproduces the old serial behavior) and render byte-identical tables
// at any worker count. -seed re-seeds the whole sweep, deriving an
// independent seed per cell; 0 keeps the fixed seed whose -quick tables
// internal/experiments/testdata/golden_quick.txt pins.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/p2pdmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	quick := flag.Bool("quick", false, "run the reduced CI-sized sweeps")
	maxPeers := flag.Int("max-peers", 0, "override the largest network size")
	only := flag.String("only", "", "run a single experiment (E1..E10, F4)")
	out := flag.String("out", "", "also write results as markdown to this file")
	parallel := flag.Int("parallel", 0, "worker count for sweep cells (0 = all cores, 1 = serial)")
	seedFlag := flag.Int64("seed", 0, "re-seed the sweep, deriving independent per-cell seeds (0 = committed seed)")
	flag.Parse()

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *maxPeers > 0 {
		sc.MaxPeers = *maxPeers
	}
	sc.Parallel = *parallel
	sc.Seed = *seedFlag

	type entry struct {
		id  string
		run func() (*p2pdmt.Table, string, error)
	}
	wrap := func(f func(experiments.Scale) (*p2pdmt.Table, error)) func() (*p2pdmt.Table, string, error) {
		return func() (*p2pdmt.Table, string, error) {
			tbl, err := f(sc)
			return tbl, "", err
		}
	}
	all := []entry{
		{"E1", wrap(experiments.E1AccuracyVsPeers)},
		{"E2", wrap(experiments.E2CommunicationCost)},
		{"E3", wrap(experiments.E3TrainingFraction)},
		{"E4", wrap(experiments.E4Churn)},
		{"E5", wrap(experiments.E5SizeSkew)},
		{"E6", wrap(experiments.E6ClassSkew)},
		{"E7", wrap(experiments.E7Topology)},
		{"E8", wrap(experiments.E8PaceTopK)},
		{"E9", wrap(experiments.E9ConfidenceSlider)},
		{"E10", wrap(experiments.E10Refinement)},
		{"F4", func() (*p2pdmt.Table, string, error) { return experiments.F4TagCloud(sc) }},
		{"A1", wrap(experiments.A1CEMPaRAblations)},
		{"A2", wrap(experiments.A2Weighting)},
		{"A3", wrap(experiments.A3DropRate)},
		{"A4", wrap(experiments.A4Privacy)},
	}

	var md strings.Builder
	ran := 0
	for _, e := range all {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		start := time.Now()
		tbl, extra, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		ran++
		fmt.Printf("%s  (%s)\n", tbl, time.Since(start).Round(time.Millisecond))
		if extra != "" {
			fmt.Println(extra)
		}
		fmt.Fprintf(&md, "### %s\n\n```\n%s```\n\n", tbl.Title, tbl)
		if extra != "" {
			fmt.Fprintf(&md, "```\n%s```\n\n", extra)
		}
	}
	if ran == 0 {
		log.Fatalf("no experiment matches -only=%s", *only)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(md.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
}
