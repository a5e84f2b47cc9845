// Community: the paper's demonstration scenario end to end — a
// delicious-style corpus spread over a peer swarm, 20% of documents
// manually tagged (the demo's split), the remaining 80% auto-tagged, with
// accuracy and traffic compared across all four protocol engines.
//
// Run with:
//
//	go run ./examples/community
package main

import (
	"fmt"
	"log"

	doctagger "repro"
)

const (
	peers    = 12
	evalDocs = 80
)

func main() {
	// One corpus, shared by every engine so numbers are comparable.
	docs, tags, err := doctagger.GenerateCorpus(doctagger.CorpusConfig{
		Users:   peers,
		NumTags: 12,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, test := doctagger.SplitCorpus(docs, 0.2, 7)
	fmt.Printf("corpus: %d documents, %d tags; %d labeled (20%%), %d to auto-tag\n\n",
		len(docs), len(tags), len(train), len(test))

	fmt.Printf("%-12s  %8s  %9s  %7s  %12s\n", "protocol", "microF1", "precision", "recall", "train-traffic")
	for _, proto := range []string{
		doctagger.ProtocolLocal,
		doctagger.ProtocolCentralized,
		doctagger.ProtocolPACE,
		doctagger.ProtocolCEMPaR,
	} {
		f1, p, r, traffic := evaluate(proto, train, test)
		fmt.Printf("%-12s  %8.4f  %9.4f  %7.4f  %9d KB\n", proto, f1, p, r, traffic/1024)
	}
	fmt.Println("\nExpected shape: CEMPaR tracks the centralized ceiling; PACE trades")
	fmt.Println("some accuracy for zero-traffic queries; local-only cannot know tags")
	fmt.Println("its user never assigned.")
}

func evaluate(proto string, train, test []doctagger.CorpusDoc) (f1, precision, recall float64, bytes int64) {
	tg, err := doctagger.New(doctagger.Config{Protocol: proto, Peers: peers, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range train {
		if err := tg.AddDocument(d.User%peers, d.Text, d.Tags...); err != nil {
			log.Fatal(err)
		}
	}
	if err := tg.Train(); err != nil {
		log.Fatal(err)
	}
	var tp, fp, fn float64
	n := evalDocs
	if n > len(test) {
		n = len(test)
	}
	for _, d := range test[:n] {
		got, err := tg.AutoTag(d.Text)
		if err != nil {
			log.Fatal(err)
		}
		gold := map[string]bool{}
		for _, t := range d.Tags {
			gold[t] = true
		}
		for _, t := range got {
			if gold[t] {
				tp++
			} else {
				fp++
			}
			delete(gold, t)
		}
		fn += float64(len(gold))
	}
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return f1, precision, recall, tg.Stats().Bytes
}
