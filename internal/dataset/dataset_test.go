package dataset

import (
	"math"
	"strings"
	"testing"
)

func small() Config {
	cfg := DefaultConfig()
	cfg.Users = 5
	cfg.DocsPerUserMin = 10
	cfg.DocsPerUserMax = 20
	cfg.NumTags = 8
	return cfg
}

func TestGenerateShape(t *testing.T) {
	c, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tags) != 8 {
		t.Fatalf("tags = %v", c.Tags)
	}
	if len(c.Docs) < 50 || len(c.Docs) > 100 {
		t.Fatalf("docs = %d, want 50..100", len(c.Docs))
	}
	known := make(map[string]bool, len(c.Tags))
	for _, tag := range c.Tags {
		known[tag] = true
	}
	for _, d := range c.Docs {
		if len(d.Tags) < 1 || len(d.Tags) > 4 {
			t.Errorf("doc %d has %d tags", d.ID, len(d.Tags))
		}
		seen := map[string]bool{}
		for _, tag := range d.Tags {
			if !known[tag] {
				t.Errorf("doc %d has unknown tag %q", d.ID, tag)
			}
			if seen[tag] {
				t.Errorf("doc %d has duplicate tag %q", d.ID, tag)
			}
			seen[tag] = true
		}
		words := strings.Fields(d.Text)
		if len(words) < 40 || len(words) > 150 {
			t.Errorf("doc %d length %d outside [40,150]", d.ID, len(words))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Docs) != len(b.Docs) {
		t.Fatal("different corpus sizes")
	}
	for i := range a.Docs {
		if a.Docs[i].Text != b.Docs[i].Text {
			t.Fatal("same seed, different text")
		}
	}
	cfg := small()
	cfg.Seed = 99
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Docs[0].Text == a.Docs[0].Text {
		t.Error("different seeds produced identical first doc (unlikely)")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.NumTags = 1 },
		func(c *Config) { c.DocsPerUserMin = 0 },
		func(c *Config) { c.DocsPerUserMax = 1 },
		func(c *Config) { c.TagsPerDocMin = 0 },
		func(c *Config) { c.DocLenMin = 0 },
		func(c *Config) { c.NoiseRatio = 1.5 },
	}
	for i, mod := range bad {
		cfg := small()
		mod(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestZipfSkewsTagPopularity(t *testing.T) {
	cfg := small()
	cfg.Users = 20
	cfg.TagZipf = 1.2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, d := range c.Docs {
		for _, tag := range d.Tags {
			counts[tag]++
		}
	}
	// The most popular tag (index 0) should beat the least popular.
	if counts[c.Tags[0]] <= counts[c.Tags[len(c.Tags)-1]] {
		t.Errorf("zipf failed: top=%d bottom=%d", counts[c.Tags[0]], counts[c.Tags[len(c.Tags)-1]])
	}
}

func TestUserBiasConcentratesTags(t *testing.T) {
	focused := small()
	focused.Users = 10
	focused.UserBias = 0.05
	focused.TagZipf = 0
	cf, err := Generate(focused)
	if err != nil {
		t.Fatal(err)
	}
	uniform := small()
	uniform.Users = 10
	uniform.UserBias = 100
	uniform.TagZipf = 0
	cu, err := Generate(uniform)
	if err != nil {
		t.Fatal(err)
	}
	// Average per-user tag entropy should be lower for focused users.
	entropy := func(c *Corpus) float64 {
		users := ByUser(c.Docs)
		var total float64
		for _, docs := range users {
			counts := map[string]float64{}
			var n float64
			for _, d := range docs {
				for _, tag := range d.Tags {
					counts[tag]++
					n++
				}
			}
			var h float64
			for _, ct := range counts {
				p := ct / n
				h -= p * math.Log2(p)
			}
			total += h
		}
		return total / float64(len(users))
	}
	if ef, eu := entropy(cf), entropy(cu); ef >= eu {
		t.Errorf("focused entropy %v >= uniform entropy %v", ef, eu)
	}
}

func TestSplitTrainTestStratified(t *testing.T) {
	c, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	train, test := SplitTrainTest(c.Docs, 0.2, 7)
	if len(train)+len(test) != len(c.Docs) {
		t.Fatalf("split lost documents: %d + %d != %d", len(train), len(test), len(c.Docs))
	}
	frac := float64(len(train)) / float64(len(c.Docs))
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("train fraction = %v, want ~0.2", frac)
	}
	// Every user appears in the training set.
	users := map[int]bool{}
	for _, d := range train {
		users[d.User] = true
	}
	for u := range ByUser(c.Docs) {
		if !users[u] {
			t.Errorf("user %d has no training docs", u)
		}
	}
	// No document in both.
	ids := map[int]bool{}
	for _, d := range train {
		ids[d.ID] = true
	}
	for _, d := range test {
		if ids[d.ID] {
			t.Errorf("doc %d in both splits", d.ID)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	c, _ := Generate(small())
	a1, _ := SplitTrainTest(c.Docs, 0.2, 5)
	a2, _ := SplitTrainTest(c.Docs, 0.2, 5)
	if len(a1) != len(a2) {
		t.Fatal("split size differs")
	}
	for i := range a1 {
		if a1[i].ID != a2[i].ID {
			t.Fatal("split order differs for same seed")
		}
	}
}

func TestTopicWordsSeparateTags(t *testing.T) {
	// Documents of different single tags should share few topical words.
	cfg := small()
	cfg.TagsPerDocMin, cfg.TagsPerDocMax = 1, 1
	cfg.NoiseRatio = 0
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wordsOf := func(tag string) map[string]bool {
		m := map[string]bool{}
		for _, d := range c.Docs {
			if d.Tags[0] == tag {
				for _, w := range strings.Fields(d.Text) {
					m[w] = true
				}
			}
		}
		return m
	}
	w0, w1 := wordsOf(c.Tags[0]), wordsOf(c.Tags[1])
	for w := range w0 {
		if w1[w] {
			t.Fatalf("word %q appears in two pure single-tag topics", w)
		}
	}
}
