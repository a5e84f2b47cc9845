// Churn: the fault-tolerance demonstration of §3 — the same tagging
// workload run against increasingly unstable networks, showing why the
// paper argues against centralization: "system failures can result in
// catastrophic outcomes ... peers are autonomous and hence there is no
// single point of failure".
//
// This example drives the P2PDMT toolkit directly (the in-repo simulation
// layer; the public doctagger API hides the network on purpose).
//
// Run with:
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/p2pdmt"
	"repro/internal/simnet"
)

func main() {
	levels := []struct {
		name  string
		model simnet.SessionModel
	}{
		{"stable", nil},
		{"mild (10m up / 1m down)", simnet.ExponentialChurn{MeanUptime: 10 * time.Minute, MeanDowntime: time.Minute}},
		{"heavy (2m up / 1m down)", simnet.ExponentialChurn{MeanUptime: 2 * time.Minute, MeanDowntime: time.Minute}},
		{"pareto (heavy-tailed)", simnet.ParetoChurn{MinUptime: time.Minute, Alpha: 1.5, MeanDowntime: time.Minute}},
	}

	fmt.Println("32 peers, 60 tag queries per cell; 'failed' counts queries the")
	fmt.Println("protocol could not answer (the owner being offline is excluded —")
	fmt.Println("an off machine asks no questions).")
	fmt.Println()
	fmt.Printf("%-26s %-12s %9s %7s %8s\n", "churn", "protocol", "answered", "failed", "microF1")
	for _, lvl := range levels {
		for _, proto := range []p2pdmt.ProtocolKind{
			p2pdmt.ProtoCentralized, p2pdmt.ProtoCEMPaR, p2pdmt.ProtoPACE,
		} {
			res, err := p2pdmt.Run(p2pdmt.Config{
				Peers:    32,
				Protocol: proto,
				EvalDocs: 60,
				Churn:    lvl.model,
				Seed:     99,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-26s %-12s %9d %7d %8.4f\n",
				lvl.name, res.Protocol,
				res.TotalQueries-res.FailedQueries, res.FailedQueries,
				res.Eval.MicroF1())
		}
		fmt.Println()
	}
	fmt.Println("Expected shape: the centralized tagger loses every query issued")
	fmt.Println("while its coordinator is down; CEMPaR re-elects super-peers after")
	fmt.Println("stabilization; PACE predicts from local model copies and never")
	fmt.Println("fails an issued query.")
}
