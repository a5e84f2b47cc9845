// Package dataset synthesizes a delicious.com-style tagged document corpus,
// substituting for the Wetzker et al. crawl the paper demonstrates on
// (public bookmarks of ~950k users; users with 50–200 annotated bookmarks).
//
// The generative model mirrors what makes social-bookmark data learnable:
// each tag is a topic with its own word distribution over a shared
// vocabulary, tag popularity is Zipf-distributed, and a document samples
// its words from a mixture of the topics of its 1–4 tags plus background
// noise. Users own 50–200 documents whose tag mix can be biased per user
// (class skew) — the knob the demo's "class distribution" scenario turns.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Document is one generated text with its ground-truth tags.
type Document struct {
	ID   int
	User int
	Text string
	Tags []string
}

// Corpus is a generated collection plus its generation metadata.
type Corpus struct {
	Docs []Document
	// Tags is the universe of tags, most popular first.
	Tags []string
	// Vocabulary size used during generation.
	VocabSize int
}

// Config drives corpus generation. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// Users is the number of peers owning documents.
	Users int
	// DocsPerUserMin/Max bound each user's collection (the demo filtered
	// delicious users to 50..200 bookmarks; smaller defaults keep unit
	// tests fast while experiments scale up).
	DocsPerUserMin, DocsPerUserMax int
	// NumTags is the tag universe size.
	NumTags int
	// TagZipf is the Zipf exponent of tag popularity (1.0 matches
	// measured social-bookmark distributions; 0 = uniform).
	TagZipf float64
	// TagsPerDocMin/Max bound the number of tags per document.
	TagsPerDocMin, TagsPerDocMax int
	// DocLenMin/Max bound document length in words.
	DocLenMin, DocLenMax int
	// NoiseRatio is the fraction of words drawn from the background
	// vocabulary instead of tag topics (0..1). Higher = harder problem.
	NoiseRatio float64
	// UserBias is a Dirichlet-style concentration controlling how skewed
	// each user's tag preferences are: large (>= 10) means all users tag
	// uniformly, small (e.g. 0.1) means each user focuses on a few tags.
	UserBias float64
	// RealWords draws document words from curated English topic
	// vocabularies instead of synthetic tokens, so generated corpora
	// transfer to real English text (used by the CLI's community mode and
	// the public GenerateCorpus API).
	RealWords bool
	// Seed makes generation deterministic.
	Seed int64
}

const (
	// wordsPerTopic is the size of each tag's characteristic vocabulary.
	wordsPerTopic = 60
	// sharedWords is the size of the background vocabulary mixed into
	// every document.
	sharedWords = 200
)

// DefaultConfig returns a moderate corpus configuration suitable for
// experiments: 0.5–1k documents over a few dozen tags.
func DefaultConfig() Config {
	return Config{
		Users:          16,
		DocsPerUserMin: 50,
		DocsPerUserMax: 200,
		NumTags:        20,
		TagZipf:        1.0,
		TagsPerDocMin:  1,
		TagsPerDocMax:  4,
		DocLenMin:      40,
		DocLenMax:      150,
		NoiseRatio:     0.35,
		UserBias:       10,
		Seed:           1,
	}
}

func (c *Config) validate() error {
	if c.Users <= 0 {
		return fmt.Errorf("dataset: Users = %d, want > 0", c.Users)
	}
	if c.NumTags <= 1 {
		return fmt.Errorf("dataset: NumTags = %d, want > 1", c.NumTags)
	}
	if c.DocsPerUserMin <= 0 || c.DocsPerUserMax < c.DocsPerUserMin {
		return fmt.Errorf("dataset: bad docs-per-user range [%d,%d]", c.DocsPerUserMin, c.DocsPerUserMax)
	}
	if c.TagsPerDocMin <= 0 || c.TagsPerDocMax < c.TagsPerDocMin {
		return fmt.Errorf("dataset: bad tags-per-doc range [%d,%d]", c.TagsPerDocMin, c.TagsPerDocMax)
	}
	if c.DocLenMin <= 0 || c.DocLenMax < c.DocLenMin {
		return fmt.Errorf("dataset: bad doc-length range [%d,%d]", c.DocLenMin, c.DocLenMax)
	}
	if c.NoiseRatio < 0 || c.NoiseRatio >= 1 {
		return fmt.Errorf("dataset: NoiseRatio = %v, want [0,1)", c.NoiseRatio)
	}
	return nil
}

// tagNames supplies human-readable tag labels reminiscent of delicious
// folksonomies; generation cycles with numeric suffixes past the list.
var tagNames = []string{
	"programming", "design", "music", "politics", "science", "travel",
	"photography", "cooking", "finance", "sports", "health", "education",
	"art", "history", "gaming", "security", "linux", "webdev", "ai",
	"databases", "startups", "climate", "astronomy", "fitness", "crafts",
	"movies", "literature", "economics", "gardening", "architecture",
}

// Generate synthesizes a corpus from cfg.
func Generate(cfg Config) (*Corpus, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	tags := make([]string, cfg.NumTags)
	for i := range tags {
		if i < len(tagNames) {
			tags[i] = tagNames[i]
		} else {
			tags[i] = fmt.Sprintf("%s%d", tagNames[i%len(tagNames)], i/len(tagNames))
		}
	}

	// Topic vocabularies: tag t owns words "w<t>x<j>"; background words are
	// "cmn<j>". Distinct prefixes guarantee topics do not collide, and the
	// stemmer leaves these synthetic word shapes intact. RealWords mode
	// substitutes curated English vocabularies (padded with synthetic
	// tokens past the curated list).
	topicWords := make([][]string, cfg.NumTags)
	for t := range topicWords {
		ws := make([]string, 0, wordsPerTopic)
		if cfg.RealWords {
			ws = append(ws, realTopicWords[t%len(realTopicWords)]...)
		}
		for j := len(ws); j < wordsPerTopic; j++ {
			ws = append(ws, fmt.Sprintf("w%dx%d", t, j))
		}
		topicWords[t] = ws[:wordsPerTopic]
	}
	shared := make([]string, 0, sharedWords)
	if cfg.RealWords {
		shared = append(shared, realSharedWords...)
	}
	for j := len(shared); j < sharedWords; j++ {
		shared = append(shared, fmt.Sprintf("cmn%d", j))
	}
	shared = shared[:sharedWords]

	// Zipf weights over tags.
	tagWeights := make([]float64, cfg.NumTags)
	for i := range tagWeights {
		if cfg.TagZipf == 0 {
			tagWeights[i] = 1
		} else {
			tagWeights[i] = 1 / math.Pow(float64(i+1), cfg.TagZipf)
		}
	}

	corpus := &Corpus{
		Tags:      tags,
		VocabSize: cfg.NumTags*wordsPerTopic + sharedWords,
	}
	docID := 0
	for u := 0; u < cfg.Users; u++ {
		// Per-user tag preference: Dirichlet(UserBias * zipf weights),
		// sampled via Gamma draws.
		pref := make([]float64, cfg.NumTags)
		var sum float64
		for i := range pref {
			pref[i] = gammaDraw(rng, math.Max(cfg.UserBias*tagWeights[i], 1e-3))
			sum += pref[i]
		}
		for i := range pref {
			pref[i] /= sum
		}
		nDocs := cfg.DocsPerUserMin + rng.Intn(cfg.DocsPerUserMax-cfg.DocsPerUserMin+1)
		for d := 0; d < nDocs; d++ {
			doc := genDoc(rng, cfg, docID, u, tags, topicWords, shared, pref)
			corpus.Docs = append(corpus.Docs, doc)
			docID++
		}
	}
	return corpus, nil
}

func genDoc(rng *rand.Rand, cfg Config, id, user int, tags []string,
	topicWords [][]string, shared []string, pref []float64) Document {

	nTags := cfg.TagsPerDocMin
	if cfg.TagsPerDocMax > cfg.TagsPerDocMin {
		nTags += rng.Intn(cfg.TagsPerDocMax - cfg.TagsPerDocMin + 1)
	}
	chosen := sampleDistinct(rng, pref, nTags)
	docTags := make([]string, len(chosen))
	for i, t := range chosen {
		docTags[i] = tags[t]
	}

	length := cfg.DocLenMin + rng.Intn(cfg.DocLenMax-cfg.DocLenMin+1)
	var b strings.Builder
	for w := 0; w < length; w++ {
		if w > 0 {
			b.WriteByte(' ')
		}
		if rng.Float64() < cfg.NoiseRatio {
			b.WriteString(shared[rng.Intn(len(shared))])
		} else {
			t := chosen[rng.Intn(len(chosen))]
			b.WriteString(topicWords[t][rng.Intn(len(topicWords[t]))])
		}
	}
	return Document{ID: id, User: user, Text: b.String(), Tags: docTags}
}

// sampleDistinct draws n distinct indices from the categorical distribution
// weights (n is clamped to the support size).
func sampleDistinct(rng *rand.Rand, weights []float64, n int) []int {
	w := append([]float64(nil), weights...)
	if n > len(w) {
		n = len(w)
	}
	out := make([]int, 0, n)
	for len(out) < n {
		var total float64
		for _, x := range w {
			total += x
		}
		if total <= 0 {
			// Remaining mass exhausted; fill from unchosen indices.
			for i, x := range w {
				if x >= 0 && len(out) < n {
					taken := false
					for _, o := range out {
						if o == i {
							taken = true
							break
						}
					}
					if !taken {
						out = append(out, i)
					}
				}
			}
			break
		}
		r := rng.Float64() * total
		for i, x := range w {
			r -= x
			if r <= 0 {
				out = append(out, i)
				w[i] = 0
				break
			}
		}
	}
	return out
}

// gammaDraw samples Gamma(shape, 1) with the Marsaglia-Tsang method.
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost and correct (Gamma(a) = Gamma(a+1) * U^(1/a)).
		u := rng.Float64()
		if u == 0 {
			u = 1e-12
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SplitTrainTest partitions docs into train/test per user with the given
// training fraction, mirroring the demo's "20 percent of the documents with
// tags are used for training" protocol. The split is deterministic for a
// seed and stratified by user so every peer holds some labeled data.
func SplitTrainTest(docs []Document, trainFrac float64, seed int64) (train, test []Document) {
	rng := rand.New(rand.NewSource(seed))
	byUser := make(map[int][]Document)
	var users []int
	for _, d := range docs {
		if _, ok := byUser[d.User]; !ok {
			users = append(users, d.User)
		}
		byUser[d.User] = append(byUser[d.User], d)
	}
	// Map iteration order is random; users slice preserves encounter order
	// for determinism.
	for _, u := range users {
		ds := byUser[u]
		perm := rng.Perm(len(ds))
		nTrain := int(trainFrac * float64(len(ds)))
		if nTrain < 1 {
			nTrain = 1
		}
		if nTrain >= len(ds) {
			nTrain = len(ds) - 1
		}
		for i, pi := range perm {
			if i < nTrain {
				train = append(train, ds[pi])
			} else {
				test = append(test, ds[pi])
			}
		}
	}
	return train, test
}

// ByUser groups documents by owning user id.
func ByUser(docs []Document) map[int][]Document {
	m := make(map[int][]Document)
	for _, d := range docs {
		m[d.User] = append(m[d.User], d)
	}
	return m
}
