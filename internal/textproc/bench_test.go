package textproc

import (
	"strings"
	"testing"
)

// benchDoc is a realistic ~120-word document for preprocessing benchmarks.
var benchDoc = strings.Repeat(
	"the quick brown foxes are jumping over lazy dogs while photographers "+
		"adjusted their cameras and the orchestra's conductor rehearsed a "+
		"difficult symphony movement before tonight's concert performance ", 4)

// BenchmarkTokenize measures the workspace tokenizer on a warm workspace.
func BenchmarkTokenize(b *testing.B) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.tokenize(benchDoc)
	}
}

func BenchmarkVectorize(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"lexicon", Options{Normalize: true}},
		{"hashed", Options{Normalize: true, HashDim: 4096}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p := NewPreprocessor(nil, mode.opts)
			p.Vectorize(benchDoc) // warm the lexicon
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Vectorize(benchDoc)
			}
		})
	}
}
