package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/svm"
	"repro/internal/vector"
)

// genCorpus draws a seeded labeled corpus over `topics` topics (one tag
// each, so 1-3 topics make the narrow banks LayoutAuto keeps in CSR): a
// document is a noisy sparse draw around its topic's feature block, now
// and then carrying a second topic's tag, and every document carries
// "everywhere" — a one-class tag training must skip.
func genCorpus(rng *rand.Rand, topics, docs int) []Doc {
	out := make([]Doc, 0, docs)
	for i := 0; i < docs; i++ {
		topic := i % (topics + 1) // topic == topics: a document of no topic
		m := map[int32]float64{}
		for j := 0; j < 6; j++ {
			m[int32((topic%topics)*8+rng.Intn(8))] = 1 + rng.Float64()
		}
		for j := 0; j < 3; j++ {
			m[int32(rng.Intn(topics*8+16))] = rng.Float64()
		}
		tags := []string{"everywhere"}
		if topic < topics {
			tags = append(tags, fmt.Sprintf("topic%d", topic))
			if rng.Intn(4) == 0 {
				tags = append(tags, fmt.Sprintf("topic%d", rng.Intn(topics)))
			}
		}
		out = append(out, Doc{X: vector.FromMap(m).Normalize(), Tags: tags})
	}
	return out
}

func genQuery(rng *rand.Rand, dim int) *vector.Sparse {
	m := map[int32]float64{}
	for j := 0; j < 1+rng.Intn(10); j++ {
		m[int32(rng.Intn(dim))] = rng.NormFloat64()
	}
	return vector.FromMap(m)
}

// refTrain is the training loop the four protocols each carried before
// TrainBank, spelled out straight-line.
func refTrain(docs []Doc, c float64, seed int64, post func(*svm.LinearModel) *svm.LinearModel) *Bank {
	b := &Bank{
		Models:   map[string]*svm.LinearModel{},
		Platt:    map[string]svm.PlattParams{},
		Accuracy: map[string]float64{},
	}
	for _, tag := range TagUniverse(docs) {
		exs := BinaryExamples(docs, tag)
		m, err := svm.TrainLinear(exs, svm.LinearOptions{C: c, Seed: seed})
		if err != nil {
			continue
		}
		if post != nil {
			m = post(m)
		}
		b.Models[tag] = m
		b.Platt[tag], b.Accuracy[tag] = svm.CalibrateLinearCV(exs, svm.LinearOptions{C: c, Seed: seed}, m, 3)
	}
	return b
}

// refVote is the map-based log-odds vote PACE and realnet each carried
// before Pool: per set and tag, Decision → Platt → clamped logit, weighted
// by (accuracy - 0.5) * scale; a nil scales slice is the unweighted vote.
func refVote(banks []*Bank, scales []float64, x *vector.Sparse) []metrics.ScoredTag {
	logitSum, weightSum := map[string]float64{}, map[string]float64{}
	for bi, b := range banks {
		tags := make([]string, 0, len(b.Models))
		for tag := range b.Models {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			w := b.Accuracy[tag] - 0.5
			if scales != nil {
				if scales[bi] <= 0 {
					continue
				}
				w *= scales[bi]
			}
			if w <= 0 {
				continue
			}
			logitSum[tag] += w * logit(b.Platt[tag].Prob(b.Models[tag].Decision(x)))
			weightSum[tag] += w
		}
	}
	out := make([]metrics.ScoredTag, 0, len(logitSum))
	for tag, sum := range logitSum {
		out = append(out, metrics.ScoredTag{Tag: tag, Score: Sigmoid(sum / weightSum[tag])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

func prune(m *svm.LinearModel) *svm.LinearModel { return m.Pruned(0.3) }

// TestBankMatchesReference is the bank's differential pin on generated
// corpora: TrainBank installs exactly the models, calibrations and
// accuracies of the straight-line loop at any worker count, with or
// without a post hook; and the scorer equals per-tag Decision + Prob on
// exact float64 comparison, through fresh and reused scratch alike.
func TestBankMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	layouts := map[svm.Layout]int{}
	for trial := 0; trial < 12; trial++ {
		topics := 1 + trial%6 // 1, 2, 3: narrow banks; 4-6: wide enough to block
		docs := genCorpus(rng, topics, 30+rng.Intn(30))
		seed := int64(100 + trial)
		var post func(*svm.LinearModel) *svm.LinearModel
		if trial%2 == 1 {
			post = prune
		}
		want := refTrain(docs, 1, seed, post)
		if len(want.Models) == 0 {
			t.Fatalf("trial %d: reference trained nothing", trial)
		}
		var bank *Bank
		for _, parallel := range []int{1, 4} {
			bank = TrainBank(docs, 1, seed, parallel, post)
			if _, ok := bank.Models["everywhere"]; ok {
				t.Fatalf("trial %d: one-class tag was trained", trial)
			}
			if !reflect.DeepEqual(bank.Models, want.Models) ||
				!reflect.DeepEqual(bank.Platt, want.Platt) ||
				!reflect.DeepEqual(bank.Accuracy, want.Accuracy) {
				t.Fatalf("trial %d parallel %d: TrainBank differs from the reference loop", trial, parallel)
			}
		}
		tags := bank.Tags()
		if !sort.StringsAreSorted(tags) || len(tags) != len(want.Models) {
			t.Fatalf("trial %d: Tags() = %v for models %v", trial, tags, want.Models)
		}
		layouts[bank.fused.Layout()]++
		var dec []float64
		var scored []metrics.ScoredTag
		for q := 0; q < 8; q++ {
			x := genQuery(rng, topics*8+24) // some entries beyond every model's dimension
			fresh, _ := bank.Score(x.Entries(), nil, nil)
			scored, dec = bank.Score(x.Entries(), dec, scored)
			if !reflect.DeepEqual(fresh, scored) {
				t.Fatalf("trial %d: fresh scores %v != reused-scratch scores %v", trial, fresh, scored)
			}
			if len(scored) > 0 && &fresh[0] == &scored[0] {
				t.Fatalf("trial %d: a nil dst must yield a slice the caller may keep", trial)
			}
			for i, tag := range tags {
				p := want.Platt[tag].Prob(want.Models[tag].Decision(x))
				if scored[i].Tag != tag || scored[i].Score != p {
					t.Fatalf("trial %d tag %s: scored %+v, reference %v", trial, tag, scored[i], p)
				}
			}
		}
	}
	if layouts[svm.LayoutCSR] == 0 || layouts[svm.LayoutBlocked] == 0 {
		t.Errorf("generated banks cover layouts %v, want both", layouts)
	}
}

// TestPoolMatchesReferenceVote pins Pool to the map-based vote it
// replaced, on banks with overlapping and disjoint tag universes: a scale
// of exactly 1.0 is bit-invisible, a scale <= 0 excludes its bank, any
// other scale multiplies the weight, and a reused Pool starts clean.
func TestPoolMatchesReferenceVote(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var banks []*Bank
	for i, topics := range []int{1, 3, 5, 6} {
		var post func(*svm.LinearModel) *svm.LinearModel
		if i%2 == 0 {
			post = prune
		}
		banks = append(banks, TrainBank(genCorpus(rng, topics, 48), 1, int64(7+i), 1, post))
	}
	banks = append(banks, new(Bank)) // an empty bank votes on nothing
	cases := []struct {
		name   string
		scales []float64
		want   func(x *vector.Sparse) []metrics.ScoredTag
	}{
		{"full trust", []float64{1, 1, 1, 1, 1},
			func(x *vector.Sparse) []metrics.ScoredTag { return refVote(banks, nil, x) }},
		{"excluded", []float64{1, 0, 1, -2, 1},
			func(x *vector.Sparse) []metrics.ScoredTag {
				return refVote([]*Bank{banks[0], banks[2]}, nil, x)
			}},
		{"scaled", []float64{0.5, 1, 0.125, 0.9, 3},
			func(x *vector.Sparse) []metrics.ScoredTag {
				return refVote(banks, []float64{0.5, 1, 0.125, 0.9, 3}, x)
			}},
	}
	var vote Pool // reused across every case and query
	for q := 0; q < 10; q++ {
		x := genQuery(rng, 64)
		for _, c := range cases {
			for i, b := range banks {
				vote.Add(b, x.Entries(), c.scales[i])
			}
			got, want := vote.Scores(), c.want(x)
			if len(want) == 0 {
				t.Fatalf("%s: reference vote is empty", c.name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: pool %v, reference %v", c.name, q, got, want)
			}
		}
	}
	if got := vote.Scores(); len(got) != 0 {
		t.Errorf("drained pool still scores %v", got)
	}
}

// TestBankFromMaps covers the banks nobody trained here — decoded from the
// wire or cloned: the score matrix is derived on first use, from any number
// of concurrent first users, and the zero Bank scores nothing.
func TestBankFromMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	trained := TrainBank(genCorpus(rng, 4, 40), 1, 3, 1, nil)
	decoded := &Bank{Models: trained.Models, Platt: trained.Platt, Accuracy: trained.Accuracy}
	x := genQuery(rng, 48)
	want := trained.Probs(x.Entries(), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := decoded.Probs(x.Entries(), nil); !reflect.DeepEqual(got, want) {
				t.Errorf("lazily fused bank scores %v, trained bank %v", got, want)
			}
		}()
	}
	wg.Wait()

	var zero Bank
	if tags := zero.Tags(); len(tags) != 0 {
		t.Errorf("zero Bank has tags %v", tags)
	}
	if scored, _ := zero.Score(x.Entries(), nil, nil); len(scored) != 0 {
		t.Errorf("zero Bank scored %v", scored)
	}
}

func TestLogitClamps(t *testing.T) {
	if logit(0) != -6 || logit(1) != 6 {
		t.Errorf("logit bounds: %v %v", logit(0), logit(1))
	}
	if logit(0.5) != 0 {
		t.Errorf("logit(0.5) = %v", logit(0.5))
	}
}
