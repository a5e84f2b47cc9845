package textproc

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

// tokens runs the workspace tokenizer over text and copies its tokens out.
func tokens(text string) []string {
	var ws workspace
	ws.tokenize(text)
	return spanStrings(&ws)
}

// termsOf tokenizes, filters and stems text with p, copying the surviving
// terms out in document order.
func termsOf(p *Preprocessor, text string) []string {
	var ws workspace
	ws.tokenize(text)
	p.terms(&ws)
	return spanStrings(&ws)
}

// spanStrings copies ws's spans out of its arena; nil when there are none.
func spanStrings(ws *workspace) []string {
	if len(ws.spans) == 0 {
		return nil
	}
	out := make([]string, len(ws.spans))
	for i, sp := range ws.spans {
		out[i] = string(ws.arena[sp.start:sp.end])
	}
	return out
}

// stem is StemBytes over a private copy of word.
func stem(word string) string { return string(StemBytes([]byte(word))) }

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"don't stop", []string{"don't", "stop"}},
		{"x2 42 3d-printing", []string{"x2", "3d", "printing"}},
		{"", nil},
		{"   \t\n", nil},
		{"C'est déjà vu", []string{"c'est", "déjà", "vu"}},
	}
	for _, c := range cases {
		if got := tokens(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTokenizeApostrophes pins the apostrophe contract: internal ones stay
// (contractions must match stop words), leading and trailing ones go, so a
// possessive or close-quoted word tokenizes identically to the bare word.
func TestTokenizeApostrophes(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"the dogs' bones", []string{"the", "dogs", "bones"}},
		{"dogs' dogs", []string{"dogs", "dogs"}},
		{"James' and James's books", []string{"james", "and", "james's", "books"}},
		{"'quoted words'", []string{"quoted", "words"}},
		{"rock 'n' roll", []string{"rock", "n", "roll"}},
		{"don't won't can't", []string{"don't", "won't", "can't"}},
		{"trailing''", []string{"trailing"}},
		{"''", nil},
		{"o''brien", []string{"o''brien"}},
	}
	for _, c := range cases {
		if got := tokens(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// The property the fix restores: a possessive shares its token (and
	// hence its lexicon id) with the bare word.
	if a, b := tokens("dogs'")[0], tokens("dogs")[0]; a != b {
		t.Errorf("possessive token %q != bare token %q", a, b)
	}
}

func TestStemKnownPairs(t *testing.T) {
	// Reference pairs from Porter's published vocabulary.
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range cases {
		if got := stem(in); got != want {
			t.Errorf("StemBytes(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonASCII(t *testing.T) {
	for _, w := range []string{"", "a", "be", "déjà", "c3po"} {
		if got := stem(w); got != w {
			t.Errorf("StemBytes(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming an already-stemmed common word should usually be stable; we
	// verify it never panics and never grows the word for random inputs.
	f := func(s string) bool {
		if len(s) > 50 {
			s = s[:50]
		}
		out := stem(s)
		return len(out) <= len(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLexicon(t *testing.T) {
	l := NewLexicon()
	a := l.ID("apple")
	b := l.ID("banana")
	if a == b {
		t.Fatal("distinct words share an id")
	}
	if got := l.ID("apple"); got != a {
		t.Errorf("second ID(apple) = %d, want %d", got, a)
	}
	if w := l.Word(a); w != "apple" {
		t.Errorf("Word(%d) = %q", a, w)
	}
	if w := l.Word(999); w != "" {
		t.Errorf("Word(999) = %q, want empty", w)
	}
	if w := l.Word(-1); w != "" {
		t.Errorf("Word(-1) = %q, want empty", w)
	}
	if _, ok := l.Lookup("cherry"); ok {
		t.Error("Lookup of unseen word succeeded")
	}
	if l.Size() != 2 {
		t.Errorf("Size = %d, want 2", l.Size())
	}
}

func TestLexiconConcurrent(t *testing.T) {
	l := NewLexicon()
	done := make(chan bool)
	words := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				l.ID(words[i%len(words)])
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if l.Size() != len(words) {
		t.Errorf("Size = %d, want %d", l.Size(), len(words))
	}
}

func TestPreprocessorStopAndSensitive(t *testing.T) {
	p := NewPreprocessor(nil, Options{})
	p.AddSensitiveWords("SECRET")
	terms := termsOf(p, "The secret plans are not for the running dogs")
	for _, term := range terms {
		if term == "secret" || term == "the" || term == "not" {
			t.Errorf("filtered term %q survived: %v", term, terms)
		}
	}
	// "running" stems to "run", "dogs" to "dog", "plans" to "plan".
	want := map[string]bool{"plan": true, "run": true, "dog": true}
	for _, term := range terms {
		if !want[term] {
			t.Errorf("unexpected term %q in %v", term, terms)
		}
	}
	if len(terms) != 3 {
		t.Errorf("terms = %v, want 3 terms", terms)
	}
}

func TestVectorizeTermFrequency(t *testing.T) {
	p := NewPreprocessor(nil, Options{Weighting: TermFrequency})
	v := p.Vectorize("dog dog cat")
	dogID, ok := p.Lexicon().Lookup("dog")
	if !ok {
		t.Fatal("dog missing from lexicon")
	}
	if got := v.At(dogID); got != 2 {
		t.Errorf("tf(dog) = %v, want 2", got)
	}
}

func TestVectorizeNormalized(t *testing.T) {
	p := NewPreprocessor(nil, Options{Normalize: true})
	v := p.Vectorize("alpha beta gamma alpha")
	if n := v.Norm(); n < 0.999 || n > 1.001 {
		t.Errorf("norm = %v, want 1", n)
	}
}

func TestVectorizeTFIDFDampsCommonTerms(t *testing.T) {
	p := NewPreprocessor(nil, Options{Weighting: TFIDF})
	// "common" appears in every document, "rare" in one.
	p.Vectorize("common alpha")
	p.Vectorize("common beta")
	v := p.Vectorize("common rare")
	commonID, _ := p.Lexicon().Lookup("common")
	rareID, _ := p.Lexicon().Lookup("rare")
	if v.At(commonID) >= v.At(rareID) {
		t.Errorf("idf failed: common=%v rare=%v", v.At(commonID), v.At(rareID))
	}
}

func TestVectorizeAllSharesLexicon(t *testing.T) {
	p := NewPreprocessor(nil, Options{})
	vs := p.VectorizeBatch([]string{"dog cat", "cat mouse"}, 1)
	if len(vs) != 2 {
		t.Fatalf("got %d vectors", len(vs))
	}
	catID, _ := p.Lexicon().Lookup("cat")
	if vs[0].At(catID) != 1 || vs[1].At(catID) != 1 {
		t.Error("cat id not shared across documents")
	}
}

// TestVectorizeBatchMatchesSerial pins the batch determinism contract:
// for every weighting scheme and any worker count, VectorizeBatch must
// produce the exact vectors (and the exact lexicon) that serial Vectorize
// calls produce in input order.
func TestVectorizeBatchMatchesSerial(t *testing.T) {
	texts := []string{
		"whales swim across the deep ocean",
		"the ship sailed the ocean at night",
		"a night train crossed the old bridge",
		"bridges and ships need steel and rivets",
		"deep learning has nothing to do with whales",
	}
	for _, w := range []Weighting{TermFrequency, LogTF, TFIDF} {
		serial := NewPreprocessor(nil, Options{Weighting: w, Normalize: true})
		want := make([]*vector.Sparse, len(texts))
		for i, txt := range texts {
			want[i] = serial.Vectorize(txt)
		}
		for _, parallel := range []int{1, 4, 0} {
			p := NewPreprocessor(nil, Options{Weighting: w, Normalize: true})
			got := p.VectorizeBatch(texts, parallel)
			for i := range texts {
				if got[i].String() != want[i].String() {
					t.Errorf("%s parallel=%d doc %d:\n got %s\nwant %s",
						w, parallel, i, got[i], want[i])
				}
			}
			if p.Lexicon().Size() != serial.Lexicon().Size() {
				t.Errorf("%s parallel=%d: lexicon size %d != %d",
					w, parallel, p.Lexicon().Size(), serial.Lexicon().Size())
			}
		}
	}
}

// TestVectorizeIntoMatchesVectorize pins the streaming terminal to the
// materialized path: for every weighting scheme, VectorizeInto must
// present byte-identical entries to what Vectorize returns for the same
// document at the same point in the df history — including the df/idf
// evolution across a corpus, checked on twin preprocessors fed the same
// texts in the same order.
func TestVectorizeIntoMatchesVectorize(t *testing.T) {
	texts := []string{
		"whales swim across the deep ocean",
		"the ship sailed the ocean at night",
		"a night train crossed the old bridge",
		"", // empty document: visit must still fire, with no entries
		"bridges and ships need steel and rivets",
		"deep learning has nothing to do with whales",
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"tf", Options{Normalize: true}},
		{"logtf", Options{Weighting: LogTF, Normalize: true}},
		{"tfidf", Options{Weighting: TFIDF, Normalize: true}},
		{"tfidf/raw", Options{Weighting: TFIDF}},
		{"hashed", Options{Normalize: true, HashDim: 1 << 12}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			mat := NewPreprocessor(nil, mode.opts)
			str := NewPreprocessor(nil, mode.opts)
			for i, txt := range texts {
				want := mat.Vectorize(txt)
				visited := false
				str.VectorizeInto(txt, func(entries []vector.Entry) {
					visited = true
					we := want.Entries()
					if len(entries) != len(we) {
						t.Fatalf("doc %d: %d streamed entries, want %d", i, len(entries), len(we))
					}
					for k := range entries {
						if entries[k] != we[k] {
							t.Fatalf("doc %d entry %d: streamed %+v, materialized %+v",
								i, k, entries[k], we[k])
						}
					}
				})
				if !visited {
					t.Fatalf("doc %d: visit not called", i)
				}
			}
			if mat.Lexicon().Size() != str.Lexicon().Size() {
				t.Errorf("lexicon diverged: %d != %d", mat.Lexicon().Size(), str.Lexicon().Size())
			}
		})
	}
}

func TestTopTerms(t *testing.T) {
	p := NewPreprocessor(nil, Options{})
	v := p.Vectorize("whale whale whale ocean ocean ship")
	top := p.TopTerms(v, 2)
	if len(top) != 2 || top[0] != "whale" || top[1] != "ocean" {
		t.Errorf("TopTerms = %v", top)
	}
	all := p.TopTerms(v, 100)
	if len(all) != 3 {
		t.Errorf("TopTerms over-request = %v", all)
	}
}

func TestDefaultStopWordsIsCopy(t *testing.T) {
	a := DefaultStopWords()
	delete(a, "the")
	b := DefaultStopWords()
	if !b["the"] {
		t.Error("DefaultStopWords shares state between calls")
	}
}

func TestHashDimStableAcrossPreprocessors(t *testing.T) {
	// Two independently created preprocessors must map the same word to
	// the same feature id — the property real-network peers rely on.
	a := NewPreprocessor(nil, Options{HashDim: 1 << 16, Normalize: true})
	b := NewPreprocessor(nil, Options{HashDim: 1 << 16, Normalize: true})
	// Warm a's lexicon differently to prove it does not matter.
	a.Vectorize("completely different warmup words here")
	va := a.Vectorize("guitar melody concert")
	vb := b.Vectorize("guitar melody concert")
	if !va.Equal(vb) {
		t.Errorf("hashed vectors differ: %v vs %v", va, vb)
	}
	// Ids stay below the dimension bound.
	for _, e := range va.Entries() {
		if int(e.Index) >= 1<<16 {
			t.Errorf("feature id %d out of range", e.Index)
		}
	}
}
