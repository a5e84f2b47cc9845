package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMicroMetricsKnownValues(t *testing.T) {
	m := NewMultiLabel(4)
	// gold {a,b}, pred {a,c}: tp=1 fp=1 fn=1
	m.Add(NewLabelSet([]string{"a", "b"}), NewLabelSet([]string{"a", "c"}))
	if p := m.MicroPrecision(); p != 0.5 {
		t.Errorf("P = %v, want 0.5", p)
	}
	if r := m.MicroRecall(); r != 0.5 {
		t.Errorf("R = %v, want 0.5", r)
	}
	if f := m.MicroF1(); f != 0.5 {
		t.Errorf("F1 = %v, want 0.5", f)
	}
	if s := m.SubsetAccuracy(); s != 0 {
		t.Errorf("subset = %v, want 0", s)
	}
}

func TestPerfectPrediction(t *testing.T) {
	m := NewMultiLabel(10)
	m.Add(NewLabelSet([]string{"x", "y"}), NewLabelSet([]string{"x", "y"}))
	if m.MicroF1() != 1 || m.SubsetAccuracy() != 1 {
		t.Errorf("perfect prediction scored %v", m)
	}
}

func TestEmptyPredictions(t *testing.T) {
	m := NewMultiLabel(5)
	m.Add(NewLabelSet([]string{"a"}), NewLabelSet(nil))
	if p := m.MicroPrecision(); p != 1 {
		t.Errorf("precision with no predictions = %v, want 1 (vacuous)", p)
	}
	if r := m.MicroRecall(); r != 0 {
		t.Errorf("recall = %v, want 0", r)
	}
}

func TestMacroF1WeightsTagsEqually(t *testing.T) {
	m := NewMultiLabel(0)
	// Tag "big" predicted perfectly 9 times; tag "small" always missed.
	for i := 0; i < 9; i++ {
		m.Add(NewLabelSet([]string{"big"}), NewLabelSet([]string{"big"}))
	}
	m.Add(NewLabelSet([]string{"small"}), NewLabelSet(nil))
	micro, macro := m.MicroF1(), m.MacroF1()
	if macro >= micro {
		t.Errorf("macro (%v) should punish the rare-tag failure more than micro (%v)", macro, micro)
	}
	if macro != 0.5 {
		t.Errorf("macro = %v, want 0.5 (perfect on one tag, zero on the other)", macro)
	}
}

func TestLabelSetSlice(t *testing.T) {
	s := NewLabelSet([]string{"z", "a", "m"})
	got := s.Slice()
	want := []string{"a", "m", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v", got)
		}
	}
}

func TestPrecisionAtK(t *testing.T) {
	gold := NewLabelSet([]string{"a", "b"})
	scored := []ScoredTag{{"a", 0.9}, {"c", 0.8}, {"b", 0.7}, {"d", 0.1}}
	if p := PrecisionAtK(gold, scored, 1); p != 1 {
		t.Errorf("P@1 = %v", p)
	}
	if p := PrecisionAtK(gold, scored, 2); p != 0.5 {
		t.Errorf("P@2 = %v", p)
	}
	if p := PrecisionAtK(gold, scored, 3); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("P@3 = %v", p)
	}
	if p := PrecisionAtK(gold, scored, 0); p != 0 {
		t.Errorf("P@0 = %v", p)
	}
	if p := PrecisionAtK(gold, scored, 100); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P@100 = %v (clamps to len)", p)
	}
	if p := PrecisionAtK(gold, nil, 3); p != 0 {
		t.Errorf("P@k empty = %v", p)
	}
}

func TestOneError(t *testing.T) {
	gold := NewLabelSet([]string{"a"})
	if e := OneError(gold, []ScoredTag{{"a", 0.9}, {"b", 0.5}}); e != 0 {
		t.Errorf("OneError = %v, want 0", e)
	}
	if e := OneError(gold, []ScoredTag{{"b", 0.9}, {"a", 0.5}}); e != 1 {
		t.Errorf("OneError = %v, want 1", e)
	}
	if e := OneError(gold, nil); e != 1 {
		t.Errorf("OneError empty = %v, want 1", e)
	}
}

func TestCommCost(t *testing.T) {
	c := CommCost{Messages: 10, Bytes: 2048, Peers: 4}
	if c.BytesPerPeer() != 512 {
		t.Errorf("BytesPerPeer = %v", c.BytesPerPeer())
	}
	if (CommCost{}).BytesPerPeer() != 0 {
		t.Error("zero peers should yield 0")
	}
	if s := c.String(); s == "" {
		t.Error("empty String")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KB",
		1 << 20: "1.0MB",
		1 << 30: "1.0GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPropertyF1Bounds(t *testing.T) {
	f := func(goldTags, predTags []uint8) bool {
		gold, pred := LabelSet{}, LabelSet{}
		for _, g := range goldTags {
			gold[string(rune('a'+g%26))] = true
		}
		for _, p := range predTags {
			pred[string(rune('a'+p%26))] = true
		}
		m := NewMultiLabel(26)
		m.Add(gold, pred)
		f1 := m.MicroF1()
		return f1 >= 0 && f1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPrecisionRecallSymmetry(t *testing.T) {
	// Swapping gold and pred swaps precision and recall.
	f := func(goldTags, predTags []uint8) bool {
		gold, pred := LabelSet{}, LabelSet{}
		for _, g := range goldTags {
			gold[string(rune('a'+g%26))] = true
		}
		for _, p := range predTags {
			pred[string(rune('a'+p%26))] = true
		}
		a := NewMultiLabel(0)
		a.Add(gold, pred)
		b := NewMultiLabel(0)
		b.Add(pred, gold)
		return math.Abs(a.MicroPrecision()-b.MicroRecall()) < 1e-12 &&
			math.Abs(a.MicroRecall()-b.MicroPrecision()) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
