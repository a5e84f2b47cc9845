// Package metrics computes multi-label classification quality measures and
// aggregates communication-cost statistics for the experiment harness.
package metrics

import (
	"fmt"
	"sort"
)

// LabelSet is a set of assigned tags.
type LabelSet map[string]bool

// NewLabelSet builds a set from a tag slice.
func NewLabelSet(tags []string) LabelSet {
	s := make(LabelSet, len(tags))
	for _, t := range tags {
		s[t] = true
	}
	return s
}

// Slice returns the tags in sorted order.
func (s LabelSet) Slice() []string {
	out := make([]string, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// MultiLabel accumulates per-document predictions and computes the standard
// multi-label measures. Add every (gold, predicted) pair, then read the
// measures.
type MultiLabel struct {
	docs         int
	tp, fp, fn   float64 // micro counts
	perTag       map[string]*tagCounts
	exactMatches int
}

type tagCounts struct{ tp, fp, fn float64 }

// NewMultiLabel returns an empty accumulator. The argument (once the size
// of the tag universe) is ignored; it stays because bench/, frozen while
// other code changes, passes one.
func NewMultiLabel(_ int) *MultiLabel {
	return &MultiLabel{perTag: make(map[string]*tagCounts)}
}

// Add records one document's gold and predicted tag sets.
func (m *MultiLabel) Add(gold, pred LabelSet) {
	m.docs++
	exact := true
	for t := range pred {
		c := m.tag(t)
		if gold[t] {
			m.tp++
			c.tp++
		} else {
			m.fp++
			c.fp++
			exact = false
		}
	}
	for t := range gold {
		if !pred[t] {
			m.fn++
			m.tag(t).fn++
			exact = false
		}
	}
	if exact {
		m.exactMatches++
	}
}

func (m *MultiLabel) tag(t string) *tagCounts {
	c, ok := m.perTag[t]
	if !ok {
		c = &tagCounts{}
		m.perTag[t] = c
	}
	return c
}

// Docs returns the number of documents scored.
func (m *MultiLabel) Docs() int { return m.docs }

// Counts returns the pooled true-positive, false-positive and
// false-negative tag counts.
func (m *MultiLabel) Counts() (tp, fp, fn float64) { return m.tp, m.fp, m.fn }

// MicroPrecision returns TP/(TP+FP) pooled over all tags (1 when nothing
// was predicted).
func (m *MultiLabel) MicroPrecision() float64 {
	if m.tp+m.fp == 0 {
		return 1
	}
	return m.tp / (m.tp + m.fp)
}

// MicroRecall returns TP/(TP+FN) pooled over all tags (1 when there was
// nothing to find).
func (m *MultiLabel) MicroRecall() float64 {
	if m.tp+m.fn == 0 {
		return 1
	}
	return m.tp / (m.tp + m.fn)
}

// MicroF1 returns the harmonic mean of micro precision and recall.
func (m *MultiLabel) MicroF1() float64 {
	p, r := m.MicroPrecision(), m.MicroRecall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 averages per-tag F1 over every tag seen in gold or predictions.
func (m *MultiLabel) MacroF1() float64 {
	if len(m.perTag) == 0 {
		return 0
	}
	// Sum in sorted-tag order: float addition is order-sensitive at the
	// ulp, and map iteration order would make repeated calls disagree in
	// the last digit — breaking byte-identical experiment tables.
	tags := make([]string, 0, len(m.perTag))
	for tag := range m.perTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var sum float64
	for _, tag := range tags {
		c := m.perTag[tag]
		var p, r float64
		if c.tp+c.fp > 0 {
			p = c.tp / (c.tp + c.fp)
		}
		if c.tp+c.fn > 0 {
			r = c.tp / (c.tp + c.fn)
		}
		if p+r > 0 {
			sum += 2 * p * r / (p + r)
		}
	}
	return sum / float64(len(m.perTag))
}

// SubsetAccuracy returns the fraction of documents whose predicted set
// exactly equals the gold set.
func (m *MultiLabel) SubsetAccuracy() float64 {
	if m.docs == 0 {
		return 0
	}
	return float64(m.exactMatches) / float64(m.docs)
}

// String renders a one-line summary.
func (m *MultiLabel) String() string {
	return fmt.Sprintf("docs=%d microF1=%.4f macroF1=%.4f P=%.4f R=%.4f subset=%.4f",
		m.docs, m.MicroF1(), m.MacroF1(), m.MicroPrecision(), m.MicroRecall(), m.SubsetAccuracy())
}

// ---------------------------------------------------------------------------
// Ranking metrics for confidence-scored predictions

// ScoredTag is a tag with a prediction confidence.
type ScoredTag struct {
	Tag   string
	Score float64
}

// PrecisionAtK returns the fraction of the top-k scored tags that are in
// gold. Ties break by tag name for determinism.
func PrecisionAtK(gold LabelSet, scored []ScoredTag, k int) float64 {
	if k <= 0 {
		return 0
	}
	s := append([]ScoredTag(nil), scored...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].Tag < s[j].Tag
	})
	if k > len(s) {
		k = len(s)
	}
	if k == 0 {
		return 0
	}
	hit := 0
	for _, st := range s[:k] {
		if gold[st.Tag] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// OneError returns 1 when the single highest-scored tag is not in gold,
// 0 when it is (averaged by callers over documents).
func OneError(gold LabelSet, scored []ScoredTag) float64 {
	if len(scored) == 0 {
		return 1
	}
	best := scored[0]
	for _, st := range scored[1:] {
		if st.Score > best.Score || (st.Score == best.Score && st.Tag < best.Tag) {
			best = st
		}
	}
	if gold[best.Tag] {
		return 0
	}
	return 1
}

// ---------------------------------------------------------------------------
// Communication cost aggregation

// CommCost summarizes network traffic for one experiment phase.
type CommCost struct {
	Messages int64
	Bytes    int64
	Peers    int
}

// BytesPerPeer returns average bytes sent per peer.
func (c CommCost) BytesPerPeer() float64 {
	if c.Peers == 0 {
		return 0
	}
	return float64(c.Bytes) / float64(c.Peers)
}

// String renders the cost with human-scaled byte units.
func (c CommCost) String() string {
	return fmt.Sprintf("msgs=%d bytes=%s (%s/peer)", c.Messages, FormatBytes(c.Bytes),
		FormatBytes(int64(c.BytesPerPeer())))
}

// FormatBytes renders a byte count with binary units.
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(b)/float64(div), "KMGTPE"[exp])
}
