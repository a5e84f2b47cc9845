package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/p2pdmt"
	"repro/internal/simnet"

	doctagger "repro"
)

// dhtHarness wraps a Chord ring for the E7 locate primitive.
type dhtHarness struct {
	ring *dht.DHT
	net  *simnet.Network
}

func newDHT(net *simnet.Network, ids []simnet.NodeID) *dhtHarness {
	return &dhtHarness{ring: dht.New(net, ids, nil), net: net}
}

// lookup routes one key lookup and stores its hop count in *hops. The
// callback runs on the completing node's simnet shard, so concurrent
// lookups need distinct hops.
func (h *dhtHarness) lookup(from simnet.NodeID, key string, hops *int) error {
	return h.ring.Lookup(from, dht.HashString(key), func(r dht.LookupResult) {
		*hops = r.Hops
	})
}

// E10Refinement measures the tag-refinement loop of §2: a deliberately
// under-trained swarm (5% labels) is improved by rounds of user
// corrections, each round feeding gold-tagged documents back through
// Refine. Expected shape: accuracy climbs monotonically with refinement
// rounds — the "adapt to their personal preference for future tagging"
// claim. It exercises the public doctagger API end to end; each
// rounds-count is an independent cell building its own swarm, so the
// cells fan out over the sweep's worker pool.
func E10Refinement(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E10: accuracy vs tag-refinement rounds",
		"rounds", "refinedDocs", "microF1", "precision", "recall")
	const peers = 8
	corpusCfg := dataset.DefaultConfig()
	corpusCfg.Users = peers
	corpusCfg.DocsPerUserMin = 40
	corpusCfg.DocsPerUserMax = 60
	corpusCfg.NumTags = 12
	corpusCfg.Seed = sc.cellSeed("E10", "corpus") + 777
	corpus, err := dataset.Generate(corpusCfg)
	if err != nil {
		return nil, err
	}
	// 5% bootstrap labels; the remainder split into a refinement pool and
	// a fixed evaluation set. All cells share the corpus read-only.
	train, rest := dataset.SplitTrainTest(corpus.Docs, 0.05, sc.cellSeed("E10", "split"))
	poolSize := len(rest) / 2
	pool, eval := rest[:poolSize], rest[poolSize:]
	if len(eval) > sc.EvalDocs*2 {
		eval = eval[:sc.EvalDocs*2]
	}
	perRound := 20

	var jobs []cellJob
	for _, rounds := range []int{0, 1, 2, 4} {
		jobs = append(jobs, func() ([][]any, error) {
			tg, err := doctagger.New(doctagger.Config{
				Protocol: doctagger.ProtocolCEMPaR,
				Peers:    peers,
				Regions:  2,
				Seed:     sc.cellSeed("E10", fmt.Sprint(rounds)),
				Parallel: 1, // the sweep's cells own the cores
				Shards:   sc.Shards,
			})
			if err != nil {
				return nil, err
			}
			for _, d := range train {
				if err := tg.AddDocument(d.User%peers, d.Text, d.Tags...); err != nil {
					return nil, err
				}
			}
			if err := tg.Train(); err != nil {
				return nil, err
			}
			refined := 0
			for r := 0; r < rounds; r++ {
				for i := r * perRound; i < (r+1)*perRound && i < len(pool); i++ {
					d := pool[i]
					// The user corrects the auto-tagger's output to the gold
					// tags (the Fig. 3 refinement action).
					if err := tg.Refine(d.Text, d.Tags...); err != nil {
						return nil, err
					}
					refined++
				}
			}
			f1, p, rcl, err := scoreTagger(tg, eval)
			if err != nil {
				return nil, err
			}
			return [][]any{{rounds, refined, f1, p, rcl}}, nil
		})
	}
	return tbl, runCells(tbl, sc, jobs)
}

// scoreTagger evaluates a trained public-API tagger on gold documents,
// tagging the whole evaluation set in one AutoTagBatch pass.
func scoreTagger(tg *doctagger.Tagger, eval []dataset.Document) (f1, precision, recall float64, err error) {
	texts := make([]string, len(eval))
	for i, d := range eval {
		texts[i] = d.Text
	}
	tagged, err := tg.AutoTagBatch(texts)
	if err != nil {
		return 0, 0, 0, err
	}
	var tp, fp, fn float64
	for i, d := range eval {
		gold := map[string]bool{}
		for _, t := range d.Tags {
			gold[t] = true
		}
		pred := map[string]bool{}
		for _, t := range tagged[i] {
			pred[t] = true
		}
		for t := range pred {
			if gold[t] {
				tp++
			} else {
				fp++
			}
		}
		for t := range gold {
			if !pred[t] {
				fn++
			}
		}
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
	return f1, precision, recall, nil
}

// F4TagCloud reproduces the Fig. 4 walk-through: auto-tag a corpus into a
// library, then build the co-occurrence tag cloud and report its concept
// clusters and bridging tags. Expected shape: tags that share topics
// cluster together and at least one bridging tag connects concepts.
func F4TagCloud(sc Scale) (*p2pdmt.Table, string, error) {
	tbl := p2pdmt.NewTable("F4: tag-cloud structure after auto-tagging",
		"measure", "value")
	const peers = 8
	tg, err := doctagger.New(doctagger.Config{
		Protocol: doctagger.ProtocolCEMPaR, Peers: peers, Regions: 2,
		Seed: sc.cellSeed("F4"), Parallel: 1, // sweep cells own the cores
		Shards: sc.Shards,
	})
	if err != nil {
		return nil, "", err
	}
	corpusCfg := dataset.DefaultConfig()
	corpusCfg.Users = peers
	corpusCfg.NumTags = 10
	corpusCfg.DocsPerUserMin = 30
	corpusCfg.DocsPerUserMax = 50
	corpusCfg.Seed = sc.cellSeed("F4", "corpus") + 4242
	corpus, err := dataset.Generate(corpusCfg)
	if err != nil {
		return nil, "", err
	}
	train, test := dataset.SplitTrainTest(corpus.Docs, 0.3, sc.cellSeed("F4", "split"))
	for _, d := range train {
		if err := tg.AddDocument(d.User%peers, d.Text, d.Tags...); err != nil {
			return nil, "", err
		}
	}
	if err := tg.Train(); err != nil {
		return nil, "", err
	}
	lib := doctagger.NewMemoryLibrary()
	limit := sc.EvalDocs * 3
	if limit > len(test) {
		limit = len(test)
	}
	texts := make([]string, limit)
	for i := 0; i < limit; i++ {
		texts[i] = test[i].Text
	}
	tagged, err := tg.AutoTagBatch(texts)
	if err != nil {
		return nil, "", err
	}
	for i := 0; i < limit; i++ {
		lib.SetTags(fmt.Sprintf("doc-%d", test[i].ID), tagged[i], true)
	}
	cloud := lib.Cloud(2)
	tbl.AddRow("documents auto-tagged", limit)
	tbl.AddRow("distinct tags in cloud", len(cloud.Tags))
	tbl.AddRow("co-occurrence edges", len(cloud.Edges))
	tbl.AddRow("concept clusters (support>=2)", len(cloud.Clusters))
	tbl.AddRow("bridging tags", len(cloud.Bridges))
	return tbl, cloud.String(), nil
}
