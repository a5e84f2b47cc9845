// Command p2pdmt runs one configured P2P data-mining simulation and prints
// its report — the command-line face of the P2PDMT toolkit (Fig. 2 of the
// paper). It exposes the knobs the demo walks through: network size,
// protocol, churn model, train fraction, data-size skew and class skew.
//
// Examples:
//
//	p2pdmt -peers 64 -protocol cempar
//	p2pdmt -peers 128 -protocol pace -churn exp -mean-uptime 4m
//	p2pdmt -peers 32 -protocol centralized -size-zipf 1.0 -viz
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/p2pdmt"
	"repro/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("p2pdmt: ")
	var (
		peers     = flag.Int("peers", 32, "network size")
		protoName = flag.String("protocol", "cempar", "cempar | pace | centralized | local")
		trainFrac = flag.Float64("train-frac", 0.2, "labeled fraction (demo used 0.2)")
		evalDocs  = flag.Int("eval-docs", 100, "test documents to score (0 = all)")
		threshold = flag.Float64("threshold", 0.5, "tag confidence threshold in [0,1]; 0 selects the default 0.5")
		sizeZipf  = flag.Float64("size-zipf", 0, "Zipf skew of per-peer data sizes")
		classSort = flag.Bool("class-sort", false, "group same-tag documents on the same peers")
		churnKind = flag.String("churn", "none", "none | exp | pareto")
		meanUp    = flag.Duration("mean-uptime", 4*time.Minute, "mean session length under churn")
		meanDown  = flag.Duration("mean-downtime", time.Minute, "mean downtime under churn")
		dropRate  = flag.Float64("drop", 0, "random message loss probability")
		seed      = flag.Int64("seed", 42, "simulation seed")
		viz       = flag.Bool("viz", false, "print the node liveness map after the run")
		verbose   = flag.Bool("v", false, "log network activity")
	)
	flag.Parse()

	cfg := p2pdmt.Config{
		Peers:     *peers,
		Protocol:  p2pdmt.ProtocolKind(*protoName),
		TrainFrac: *trainFrac,
		EvalDocs:  *evalDocs,
		Threshold: *threshold,
		DropRate:  *dropRate,
		Seed:      *seed,
		Distribution: p2pdmt.Distribution{
			SizeZipf:  *sizeZipf,
			ClassSort: *classSort,
		},
	}
	switch *churnKind {
	case "none":
	case "exp":
		cfg.Churn = simnet.ExponentialChurn{MeanUptime: *meanUp, MeanDowntime: *meanDown}
	case "pareto":
		cfg.Churn = simnet.ParetoChurn{MinUptime: *meanUp / 4, Alpha: 1.5, MeanDowntime: *meanDown}
	default:
		log.Fatalf("unknown churn model %q", *churnKind)
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	start := time.Now()
	res, err := p2pdmt.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("protocol      %s\n", res.Protocol)
	fmt.Printf("peers         %d\n", res.Peers)
	fmt.Printf("queries       %d answered, %d failed, %d owners offline\n",
		res.TotalQueries-res.FailedQueries, res.FailedQueries, res.SkippedOffline)
	fmt.Printf("accuracy      %s\n", res.Eval)
	fmt.Printf("suggestion    P@1=%.4f one-error=%.4f\n", res.MeanP1, res.OneError)
	fmt.Printf("train cost    %s\n", res.TrainCost)
	fmt.Printf("query cost    %s\n", res.QueryCost)
	fmt.Printf("wall time     %s\n", time.Since(start).Round(time.Millisecond))
	if *viz {
		fmt.Printf("\n%s", res.LivenessMap)
	}
}
