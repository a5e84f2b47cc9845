// Package protocol defines the pluggable P2P classification interface of
// P2PDocTagger ("the P2P classification algorithm in P2PDocTagger is a
// pluggable component") together with what its implementations share:
// the calibrated one-against-all linear bank (Bank, TrainBank) that PACE,
// the centralized/local baselines and the realnet mesh all train and
// score with, PACE's proximity-weighted ensemble vote over such banks
// (Pool), and the tag-selection and multi-label → binary helpers CEMPaR
// uses too.
package protocol

import (
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/svm"
	"repro/internal/vector"
)

// Doc is one training document: its preprocessed feature vector and the
// tags assigned (manually or by refinement) by its owning peer.
type Doc struct {
	X    *vector.Sparse
	Tags []string
}

// Classifier is a distributed multi-label classification protocol running
// on a simulated network. Implementations register their per-peer state at
// construction; Fit schedules the collaborative training traffic, and
// Predict or PredictEntries schedules a query from one peer. The caller
// drives the network (net.Run) to make either complete.
type Classifier interface {
	StreamScorer
	// Name identifies the protocol in experiment reports.
	Name() string
	// Fit starts collaborative training from each peer's local documents.
	Fit()
	// Predict requests tag scores for x as seen from peer `from`,
	// invoking cb exactly once when the answer is available (which may be
	// synchronously for local protocols). cb receives scores in [0,1] for
	// every tag the protocol knows; absent tags mean score 0. If the
	// query cannot be answered (e.g. the responsible node is down), ok is
	// false.
	Predict(from simnet.NodeID, x *vector.Sparse, cb func(scores []metrics.ScoredTag, ok bool))
}

// Refiner is implemented by protocols that support the paper's tag
// refinement loop: a user correction becomes new labeled data that updates
// the local and global models.
type Refiner interface {
	Refine(peer simnet.NodeID, doc Doc)
}

// StreamScorer is the query entry point over raw sorted entries, with no
// materialized *vector.Sparse: every Classifier implements it, and
// doctagger.Tagger asks every query through it. PredictEntries has
// Predict's exact semantics (cb invoked exactly once, same scores bit for
// bit), with a stricter borrow contract: the entries slice is only valid
// for the duration of the call (it typically lives in pooled
// preprocessing scratch), so an implementation that answers later — e.g.
// forwards the query over the network — copies the entries first.
// Likewise the scores slice handed to cb may be reused scratch: cb must
// consume it synchronously.
type StreamScorer interface {
	PredictEntries(from simnet.NodeID, entries []vector.Entry, cb func(scores []metrics.ScoredTag, ok bool))
}

// Sigmoid squashes an SVM decision value into a (0,1) confidence.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// SelectTags applies P2PDocTagger's tag-assignment rule to scores: keep
// every tag at or above threshold; if none clears it, fall back to the
// single best tag (a document always receives at least one tag, as in the
// demo UI). maxTags caps the result (0 = unlimited). Ties break by name.
func SelectTags(scores []metrics.ScoredTag, threshold float64, maxTags int) []string {
	tags, _ := SelectTagsInto(nil, scores, nil, threshold, maxTags)
	return tags
}

// ByScore orders scored tags by descending score with name tie-breaks —
// the order of a suggestion cloud and of tag selection.
func ByScore(a, b metrics.ScoredTag) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return strings.Compare(a.Tag, b.Tag)
}

// SelectTagsInto is SelectTags with caller-owned storage, for the
// streaming batch path: the selected tags append into dst[:0] and the
// sort runs in scratch (grown as needed), so a tagging loop reusing both
// allocates only when a document needs more room than any predecessor.
// Returns the tags and the (possibly regrown) scratch. scores itself is
// never reordered. Semantics are pinned to SelectTags: same ordering rule
// (score desc, name asc — a total order, so the unstable sort is
// deterministic), same fallback, same nil result for empty scores.
func SelectTagsInto(dst []string, scores []metrics.ScoredTag, scratch []metrics.ScoredTag, threshold float64, maxTags int) ([]string, []metrics.ScoredTag) {
	scratch = append(scratch[:0], scores...)
	slices.SortFunc(scratch, ByScore)
	if cap(dst) == 0 && len(scratch) > 0 {
		// One right-sized allocation instead of append's doubling walk.
		n := len(scratch)
		if maxTags > 0 && maxTags < n {
			n = maxTags
		}
		dst = make([]string, 0, n)
	}
	out := dst[:0]
	for _, st := range scratch {
		if st.Score >= threshold {
			if maxTags > 0 && len(out) == maxTags {
				break
			}
			out = append(out, st.Tag)
		}
	}
	if len(out) == 0 {
		if len(scratch) == 0 {
			return nil, scratch
		}
		out = append(out, scratch[0].Tag)
	}
	return out, scratch
}

// BinaryExamples converts docs into one-against-all training examples for
// tag: documents carrying the tag are positive, the rest negative — the
// multi-label → binary reduction of §2.
func BinaryExamples(docs []Doc, tag string) []svm.Example {
	out := make([]svm.Example, 0, len(docs))
	for _, d := range docs {
		y := -1.0
		for _, t := range d.Tags {
			if t == tag {
				y = 1
				break
			}
		}
		out = append(out, svm.Example{X: d.X, Y: y})
	}
	return out
}

// TagUniverse returns the sorted set of tags present in docs.
func TagUniverse(docs []Doc) []string {
	seen := map[string]bool{}
	for _, d := range docs {
		for _, t := range d.Tags {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
