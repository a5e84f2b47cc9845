package protocol

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vector"
)

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); s != 0.5 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(10); s < 0.99 {
		t.Errorf("Sigmoid(10) = %v", s)
	}
	if s := Sigmoid(-10); s > 0.01 {
		t.Errorf("Sigmoid(-10) = %v", s)
	}
	// Symmetry.
	if math.Abs(Sigmoid(2)+Sigmoid(-2)-1) > 1e-12 {
		t.Error("sigmoid not symmetric")
	}
}

func TestSelectTags(t *testing.T) {
	scores := []metrics.ScoredTag{
		{Tag: "a", Score: 0.9}, {Tag: "b", Score: 0.6},
		{Tag: "c", Score: 0.4}, {Tag: "d", Score: 0.1},
	}
	got := SelectTags(scores, 0.5, 0)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("SelectTags = %v", got)
	}
	// Fallback to best single tag when nothing clears the threshold.
	got = SelectTags(scores, 0.95, 0)
	if len(got) != 1 || got[0] != "a" {
		t.Errorf("fallback = %v", got)
	}
	// MaxTags caps.
	got = SelectTags(scores, 0.05, 2)
	if len(got) != 2 {
		t.Errorf("maxTags = %v", got)
	}
	// Empty input.
	if got := SelectTags(nil, 0.5, 0); got != nil {
		t.Errorf("empty = %v", got)
	}
	// Deterministic tie-break by name.
	tie := []metrics.ScoredTag{{Tag: "z", Score: 0.7}, {Tag: "a", Score: 0.7}}
	got = SelectTags(tie, 0.5, 1)
	if got[0] != "a" {
		t.Errorf("tie-break = %v", got)
	}
}

func TestBinaryExamples(t *testing.T) {
	x1 := vector.FromMap(map[int32]float64{0: 1})
	x2 := vector.FromMap(map[int32]float64{1: 1})
	docs := []Doc{
		{X: x1, Tags: []string{"music", "travel"}},
		{X: x2, Tags: []string{"food"}},
	}
	exs := BinaryExamples(docs, "music")
	if len(exs) != 2 {
		t.Fatalf("got %d examples", len(exs))
	}
	if exs[0].Y != 1 || exs[1].Y != -1 {
		t.Errorf("labels = %v, %v", exs[0].Y, exs[1].Y)
	}
	if exs[0].X != x1 {
		t.Error("example should reference the same vector")
	}
}

func TestTagUniverse(t *testing.T) {
	docs := []Doc{
		{Tags: []string{"b", "a"}},
		{Tags: []string{"a", "c"}},
		{Tags: nil},
	}
	got := TagUniverse(docs)
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("universe = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("universe = %v, want %v", got, want)
		}
	}
	if u := TagUniverse(nil); len(u) != 0 {
		t.Errorf("empty universe = %v", u)
	}
}
