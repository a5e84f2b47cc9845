package doctagger

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/protocol"
)

// corpusFor stages a small three-topic corpus across the swarm's peers.
func corpusFor(t *testing.T, tg *Tagger, peers int) {
	t.Helper()
	topics := []struct {
		tag   string
		texts []string
	}{
		{"music", []string{"guitar melody chord song album", "piano concert symphony melody", "drum bass rhythm song track", "vinyl album melody chorus tune"}},
		{"travel", []string{"flight hotel passport itinerary beach", "backpack hostel visa train border", "island beach resort luggage sunset", "map itinerary museum city tour"}},
		{"food", []string{"recipe oven butter flour sugar", "grill steak pepper garlic sauce", "noodle broth spice chili bowl", "bread yeast dough crust bake"}},
	}
	peer := 0
	for _, topic := range topics {
		for i, text := range topic.texts {
			// Spread documents across peers deterministically. The first
			// document of every topic also trains peer 0 (the querying
			// peer), so the local-only baseline knows every tag.
			target := peer % peers
			if i == 0 {
				target = 0
			}
			if err := tg.AddDocument(target, text+" "+text, topic.tag); err != nil {
				t.Fatal(err)
			}
			peer++
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Protocol: "bogus"}); err == nil {
		t.Error("bogus protocol accepted")
	}
	tg, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tg.Protocol() != "CEMPaR" {
		t.Errorf("default protocol = %q", tg.Protocol())
	}
}

func TestConfigSentinels(t *testing.T) {
	// Out-of-range values are rejected instead of silently accepted.
	for _, cfg := range []Config{
		{Threshold: -0.5},
		{Threshold: 1.5},
		{Threshold: math.NaN()},
		{MaxTags: -2},
		{Peers: -1},
		{Regions: -1},
		{TopK: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an out-of-range value", cfg)
		}
	}
	// Zero values keep the paper defaults.
	tg, err := New(Config{Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tg.Threshold() != 0.5 || tg.cfg.MaxTags != 4 || tg.cfg.Regions != 2 {
		t.Errorf("defaults = threshold %v, maxTags %d, regions %d", tg.Threshold(), tg.cfg.MaxTags, tg.cfg.Regions)
	}
	// From 32 peers the default region count is 4.
	if tg, err := New(Config{Peers: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	} else if tg.cfg.Regions != 4 {
		t.Errorf("32 peers: default regions %d, want 4", tg.cfg.Regions)
	}
	// The sentinels request what the zero value cannot: threshold 0 and no
	// tag cap.
	tg, err = New(Config{Peers: 4, Seed: 1, Threshold: ThresholdNone, MaxTags: MaxTagsUnlimited})
	if err != nil {
		t.Fatal(err)
	}
	if tg.Threshold() != 0 {
		t.Errorf("ThresholdNone resolved to %v, want 0", tg.Threshold())
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	// Threshold 0 with no cap returns every tag the swarm knows (3 topics).
	tags, err := tg.AutoTag("song melody on the beach with a recipe for the hotel grill")
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 3 {
		t.Errorf("threshold 0, no cap: AutoTag = %v, want all 3 known tags", tags)
	}
}

func TestLifecycleGuards(t *testing.T) {
	tg, err := New(Config{Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Suggest("anything"); err != ErrNotTrained {
		t.Errorf("Suggest before train = %v", err)
	}
	if _, err := tg.AutoTag("anything"); err != ErrNotTrained {
		t.Errorf("AutoTag before train = %v", err)
	}
	if err := tg.Refine("x", "tag"); err != ErrNotTrained {
		t.Errorf("Refine before train = %v", err)
	}
	if err := tg.Train(); err == nil {
		t.Error("training with no documents should fail")
	}
	if err := tg.AddDocument(99, "text", "tag"); err == nil {
		t.Error("out-of-range peer accepted")
	}
	if err := tg.AddDocument(0, "text"); err == nil {
		t.Error("document without tags accepted")
	}
}

func TestEndToEndPerProtocol(t *testing.T) {
	for _, proto := range []string{ProtocolCEMPaR, ProtocolPACE, ProtocolCentralized, ProtocolLocal} {
		t.Run(proto, func(t *testing.T) {
			tg, err := New(Config{Protocol: proto, Peers: 6, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			corpusFor(t, tg, 6)
			if err := tg.Train(); err != nil {
				t.Fatal(err)
			}
			sugg, err := tg.Suggest("festival song with guitar and melody on a new album")
			if err != nil {
				t.Fatal(err)
			}
			if len(sugg) == 0 {
				t.Fatal("empty suggestion cloud")
			}
			if sugg[0].Tag != "music" {
				t.Errorf("top suggestion = %+v, want music", sugg[0])
			}
			tags, err := tg.AutoTag("bake the dough with butter sugar and flour in the oven")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, tag := range tags {
				if tag == "food" {
					found = true
				}
			}
			if !found {
				t.Errorf("AutoTag = %v, want food included", tags)
			}
		})
	}
}

// TestAutoTagBatchMatchesSerial pins AutoTagBatch's contract: for every
// protocol, batching must return exactly what per-document AutoTag calls
// return, in input order, on an identically built swarm.
func TestAutoTagBatchMatchesSerial(t *testing.T) {
	queries := []string{
		"a new album with a soft piano melody",
		"booking a flight and a hotel for the island",
		"a bread recipe with yeast and flour",
		"drum track with a heavy bass rhythm",
	}
	for _, proto := range []string{ProtocolCEMPaR, ProtocolPACE, ProtocolCentralized, ProtocolLocal} {
		build := func() *Tagger {
			tg, err := New(Config{Protocol: proto, Peers: 4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			corpusFor(t, tg, 4)
			if err := tg.Train(); err != nil {
				t.Fatal(err)
			}
			return tg
		}
		serial := build()
		want := make([][]string, len(queries))
		for i, q := range queries {
			tags, err := serial.AutoTag(q)
			if err != nil {
				t.Fatalf("%s: AutoTag(%q): %v", proto, q, err)
			}
			want[i] = tags
		}
		got, err := build().AutoTagBatch(queries)
		if err != nil {
			t.Fatalf("%s: AutoTagBatch: %v", proto, err)
		}
		for i := range queries {
			if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
				t.Errorf("%s: doc %d: batch %v != serial %v", proto, i, got[i], want[i])
			}
		}
	}
}

// TestStreamingMatchesMaterialized pins the query path — pooled workspace
// straight into the protocol's PredictEntries, no intermediate vector —
// against a manually materialized Vectorize+Predict+SelectTags reference
// on a twin swarm, for every protocol. Scores compare on exact float64
// equality: streaming must not change a single bit.
func TestStreamingMatchesMaterialized(t *testing.T) {
	queries := []string{
		"a new album with a soft piano melody",
		"booking a flight and a hotel for the island",
		"a bread recipe with yeast and flour",
		"",
	}
	for _, proto := range []string{ProtocolCEMPaR, ProtocolPACE, ProtocolCentralized, ProtocolLocal} {
		build := func() *Tagger {
			tg, err := New(Config{Protocol: proto, Peers: 4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			corpusFor(t, tg, 4)
			if err := tg.Train(); err != nil {
				t.Fatal(err)
			}
			return tg
		}
		streaming := build()
		ref := build()
		for _, q := range queries {
			gotSuggest, err := streaming.Suggest(q)
			if err != nil {
				t.Fatalf("%s: Suggest(%q): %v", proto, q, err)
			}
			gotTags, err := streaming.AutoTag(q)
			if err != nil {
				t.Fatalf("%s: AutoTag(%q): %v", proto, q, err)
			}

			// Materialized reference: the pre-streaming pipeline, by hand.
			x := ref.pre.Vectorize(q)
			var scores []metrics.ScoredTag
			answered := false
			ref.clf.Predict(ref.self, x, func(sc []metrics.ScoredTag, ok bool) {
				scores = append([]metrics.ScoredTag(nil), sc...)
				answered = ok
			})
			ref.run()
			if !answered {
				t.Fatalf("%s: reference swarm did not answer %q", proto, q)
			}
			wantTags := protocol.SelectTags(scores, ref.cfg.Threshold, ref.cfg.MaxTags)

			if strings.Join(gotTags, ",") != strings.Join(wantTags, ",") {
				t.Errorf("%s %q: streamed tags %v != materialized %v", proto, q, gotTags, wantTags)
			}
			sort.Slice(scores, func(i, j int) bool {
				if scores[i].Score != scores[j].Score {
					return scores[i].Score > scores[j].Score
				}
				return scores[i].Tag < scores[j].Tag
			})
			if len(gotSuggest) != len(scores) {
				t.Fatalf("%s %q: %d streamed suggestions, %d materialized", proto, q, len(gotSuggest), len(scores))
			}
			for i := range gotSuggest {
				if gotSuggest[i].Tag != scores[i].Tag || gotSuggest[i].Confidence != scores[i].Score {
					t.Errorf("%s %q suggestion %d: streamed %+v != materialized %+v",
						proto, q, i, gotSuggest[i], scores[i])
				}
			}
		}
	}
}

func TestAutoTagBatchGuards(t *testing.T) {
	tg, err := New(Config{Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.AutoTagBatch([]string{"anything"}); err != ErrNotTrained {
		t.Errorf("AutoTagBatch before train = %v", err)
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	out, err := tg.AutoTagBatch(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

func TestRefinementPersonalizes(t *testing.T) {
	tg, err := New(Config{Protocol: ProtocolCEMPaR, Peers: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 6)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	// The user repeatedly refines documents about gardening — a tag the
	// swarm has never seen.
	for i := 0; i < 5; i++ {
		text := "soil seedling compost prune watering bed " + strings.Repeat("mulch ", i+1)
		if err := tg.Refine(text, "gardening"); err != nil {
			t.Fatal(err)
		}
	}
	sugg, err := tg.Suggest("compost the soil and prune the seedling bed")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sugg {
		if s.Tag == "gardening" {
			return // refined tag became suggestible
		}
	}
	t.Errorf("gardening never suggested: %+v", sugg)
}

func TestAddDocumentAfterTrainRefines(t *testing.T) {
	tg, err := New(Config{Protocol: ProtocolPACE, Peers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	// Post-training AddDocument behaves as refinement (peer 2's user also
	// corrects tags).
	for i := 0; i < 4; i++ {
		if err := tg.AddDocument(2, "telescope nebula galaxy star orbit", "astronomy"); err != nil {
			t.Fatal(err)
		}
	}
	sugg, err := tg.Suggest("the telescope shows a distant galaxy and nebula")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sugg {
		if s.Tag == "astronomy" {
			return
		}
	}
	t.Errorf("astronomy never suggested: %+v", sugg)
}

func TestThresholdSliderChangesTagCount(t *testing.T) {
	tg, err := New(Config{Protocol: ProtocolCentralized, Peers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	text := "song melody on the beach with a recipe for the hotel grill"
	if err := tg.SetThreshold(0.05); err != nil {
		t.Fatal(err)
	}
	loose, err := tg.AutoTag(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.SetThreshold(0.95); err != nil {
		t.Fatal(err)
	}
	strict, err := tg.AutoTag(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) > len(loose) {
		t.Errorf("strict threshold gave more tags (%v) than loose (%v)", strict, loose)
	}
	if tg.Threshold() != 0.95 {
		t.Error("threshold not stored")
	}
}

// TestSetThresholdRejectsOutOfRange pins the slider's validation: values
// outside [0,1] — which Config.Threshold already rejects at construction —
// must not sneak in through the setter and silently pin tagging to
// "everything" or "nothing".
func TestSetThresholdRejectsOutOfRange(t *testing.T) {
	tg, err := New(Config{Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{7, -3, 1.0001, -0.0001, math.NaN()} {
		if err := tg.SetThreshold(th); err == nil {
			t.Errorf("SetThreshold(%v) accepted an out-of-range value", th)
		}
	}
	if got := tg.Threshold(); got != 0.5 {
		t.Errorf("rejected SetThreshold changed the threshold to %v", got)
	}
	for _, th := range []float64{0, 1, 0.5} {
		if err := tg.SetThreshold(th); err != nil {
			t.Errorf("SetThreshold(%v): %v", th, err)
		}
		if got := tg.Threshold(); got != th {
			t.Errorf("Threshold() = %v after SetThreshold(%v)", got, th)
		}
	}
}

func TestStatsAndExplain(t *testing.T) {
	tg, err := New(Config{Protocol: ProtocolCEMPaR, Peers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	if s := tg.Stats(); s.Messages == 0 || s.Bytes == 0 {
		t.Errorf("no traffic recorded: %+v", s)
	}
	terms := tg.ExplainDocument("The guitars were playing beautiful melodies", 3)
	joined := strings.Join(terms, " ")
	if !strings.Contains(joined, "guitar") || !strings.Contains(joined, "melodi") {
		t.Errorf("explain = %v (stemming/stop-words expected)", terms)
	}
}

// TestStatsConcurrentWithParallelTraining reads Stats from another
// goroutine while the swarm trains over all cores and then serves a batch —
// the monitoring pattern a serving front-end's stats endpoint uses. Under
// -race this pins the simnet stats counters being properly synchronized.
func TestStatsConcurrentWithParallelTraining(t *testing.T) {
	tg, err := New(Config{Protocol: ProtocolCEMPaR, Peers: 8, Seed: 21, Parallel: 0})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if s := tg.Stats(); s.Messages < 0 {
					t.Error("negative message count")
					return
				}
			}
		}
	}()
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.AutoTagBatch([]string{
		"a new album with a soft piano melody",
		"a bread recipe with yeast and flour",
	}); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if s := tg.Stats(); s.Messages == 0 {
		t.Errorf("no traffic recorded: %+v", s)
	}
}

func TestSensitiveWordsNeverReachModels(t *testing.T) {
	tg, err := New(Config{Protocol: ProtocolLocal, Peers: 2, SensitiveWords: []string{"projectx"}, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	terms := tg.ExplainDocument("the secret projectx launch guitar", 10)
	for _, term := range terms {
		if strings.Contains(term, "projectx") {
			t.Error("sensitive word leaked into features")
		}
	}
}

func TestLibraryRoundTrip(t *testing.T) {
	lib := NewMemoryLibrary()
	lib.SetTags("/a", []string{"go", "db"}, false)
	lib.AddTags("/a", []string{"perf"}, true)
	lib.SetTags("/b", []string{"go"}, false)
	if lib.Len() != 2 {
		t.Fatalf("len = %d", lib.Len())
	}
	e, err := lib.Get("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Auto["perf"] || e.Auto["go"] {
		t.Errorf("auto = %v", e.Auto)
	}
	if got := lib.Search("go", "-db"); len(got) != 1 || got[0].Path != "/b" {
		t.Errorf("search = %v", got)
	}
	if err := lib.RemoveTag("/a", "db"); err != nil {
		t.Fatal(err)
	}
	counts := lib.TagCounts()
	if counts[0].Tag != "go" || counts[0].Count != 2 {
		t.Errorf("counts = %v", counts)
	}
	cloud := lib.Cloud(1)
	if cloud.String() == "" {
		t.Error("empty cloud rendering")
	}
	lib.Delete("/b")
	if lib.Len() != 1 {
		t.Error("delete failed")
	}
	if err := lib.Save(); err != nil {
		t.Errorf("memory save = %v", err)
	}
}

func TestLibraryPersistence(t *testing.T) {
	path := t.TempDir() + "/lib.json"
	lib, err := OpenLibrary(path)
	if err != nil {
		t.Fatal(err)
	}
	lib.SetTags("/x", []string{"alpha"}, false)
	if err := lib.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLibrary(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Error("persistence failed")
	}
}

// TestFastPathPinnedOnStandardCorpus pins the inference fast path on the
// standard synthetic corpus: for every protocol, Suggest's score cloud is
// byte-identical across identically built twin swarms (pooled
// preprocessing, fused linear scoring and cached-norm kernel decisions
// introduce no nondeterminism), and AutoTag / AutoTagBatch / the
// tag-selection rule applied to Suggest all agree document by document.
// The layer-level slow-path equality lives in the textproc and svm
// reference pins; this test guards the composed vertical slice.
func TestFastPathPinnedOnStandardCorpus(t *testing.T) {
	docs, _, err := GenerateCorpus(CorpusConfig{Users: 6, NumTags: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	train, test := SplitCorpus(docs, 0.2, 3)
	if len(test) > 12 {
		test = test[:12]
	}
	for _, proto := range []string{ProtocolCEMPaR, ProtocolPACE, ProtocolCentralized, ProtocolLocal} {
		t.Run(proto, func(t *testing.T) {
			build := func() *Tagger {
				tg, err := New(Config{Protocol: proto, Peers: 6, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range train {
					if err := tg.AddDocument(d.User%6, d.Text, d.Tags...); err != nil {
						t.Fatal(err)
					}
				}
				if err := tg.Train(); err != nil {
					t.Fatal(err)
				}
				return tg
			}
			a, b := build(), build()
			queries := make([]string, len(test))
			for i, d := range test {
				queries[i] = d.Text
			}
			batch, err := b.AutoTagBatch(queries)
			if err != nil {
				t.Fatalf("AutoTagBatch: %v", err)
			}
			for i, d := range test {
				sugg, err := a.Suggest(d.Text)
				if err != nil {
					t.Fatalf("Suggest(doc %d): %v", i, err)
				}
				sugg2, err := b.Suggest(d.Text)
				if err != nil {
					t.Fatalf("twin Suggest(doc %d): %v", i, err)
				}
				if len(sugg) != len(sugg2) {
					t.Fatalf("doc %d: twin clouds differ in size: %d != %d", i, len(sugg), len(sugg2))
				}
				for j := range sugg {
					if sugg[j] != sugg2[j] {
						t.Fatalf("doc %d: twin swarms diverge at %d: %+v != %+v", i, j, sugg[j], sugg2[j])
					}
				}
				tags, err := a.AutoTag(d.Text)
				if err != nil {
					t.Fatalf("AutoTag(doc %d): %v", i, err)
				}
				if strings.Join(tags, ",") != strings.Join(batch[i], ",") {
					t.Errorf("doc %d: AutoTag %v != AutoTagBatch %v", i, tags, batch[i])
				}
			}
		})
	}
}
