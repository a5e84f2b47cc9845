package realnet

import (
	"errors"
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/textproc"
	"repro/internal/vector"
)

// Ensemble scores documents against one model set, packaged as a batch
// classification engine for internal/serving: AutoTagBatch answers one
// tag list per input text in input order. A tag votes with its calibrated
// probability (Bank.Probs) when its cross-validated accuracy is above
// 0.5; a tag no better than chance is left out. This is how a gossiped
// model generation becomes a serving shard — the cmd/p2pserve cluster
// installs one Ensemble per shard, all over the generation's immutable
// set, through the serving Swap path.
//
// An Ensemble is NOT safe for concurrent use (it reuses per-instance
// scratch); this matches the serving Engine contract, where each shard is
// driven by exactly one goroutine. Build one Ensemble per shard; the
// underlying set may be shared, it is read-only after construction.
type Ensemble struct {
	pre       *textproc.Preprocessor
	set       *ModelSet
	voters    []int // indexes into set.Tags() of the tags that vote
	threshold float64
	maxTags   int
	probs     []float64           // Bank.Probs scratch, reused across documents
	scored    []metrics.ScoredTag // the voters' scores, reused across documents
	sel       []metrics.ScoredTag // SelectTagsInto sort scratch, reused across documents
}

// NewEnsemble builds an engine over set, assigning every tag scoring at or
// above threshold (falling back to the single best; 0 accepts every tag)
// and capping answers at maxTags (0 = unlimited). The set must not be
// mutated afterwards.
func NewEnsemble(threshold float64, maxTags int, set *ModelSet) (*Ensemble, error) {
	if set == nil || len(set.Tags()) == 0 {
		return nil, errors.New("realnet: ensemble over an empty model set")
	}
	if threshold < 0 || threshold > 1 || math.IsNaN(threshold) {
		return nil, errors.New("realnet: ensemble threshold outside [0,1]")
	}
	if maxTags < 0 {
		return nil, errors.New("realnet: negative ensemble maxTags")
	}
	var voters []int
	for i, tag := range set.Tags() {
		if set.Accuracy[tag] > 0.5 {
			voters = append(voters, i)
		}
	}
	return &Ensemble{
		pre:       newHashedPreprocessor(),
		set:       set,
		voters:    voters,
		threshold: threshold,
		maxTags:   maxTags,
	}, nil
}

// scores is the voters' calibrated probabilities for one document, in
// ascending tag order, in the Ensemble's reused scratch.
func (e *Ensemble) scores(entries []vector.Entry) []metrics.ScoredTag {
	e.probs = e.set.Probs(entries, e.probs)
	tags := e.set.Tags()
	e.scored = e.scored[:0]
	for _, i := range e.voters {
		e.scored = append(e.scored, metrics.ScoredTag{Tag: tags[i], Score: e.probs[i]})
	}
	return e.scored
}

// Suggest returns the full suggestion cloud for one document, sorted by
// descending score with name tie-breaks. The document streams from the
// pooled preprocessing workspace straight into fused scoring — no
// intermediate *vector.Sparse is materialized.
func (e *Ensemble) Suggest(text string) []metrics.ScoredTag {
	var out []metrics.ScoredTag
	e.pre.VectorizeInto(text, func(entries []vector.Entry) {
		out = slices.Clone(e.scores(entries))
		slices.SortFunc(out, protocol.ByScore)
	})
	return out
}

// AutoTagBatch implements the serving engine contract: one non-nil tag
// list per input text, in input order. Every row is answerable (the set
// is fixed at construction), so the error is always nil. Documents
// stream one at a time through the Ensemble's reused scratch — the only
// per-row state that survives an iteration is its answer.
func (e *Ensemble) AutoTagBatch(texts []string) ([][]string, error) {
	out := make([][]string, len(texts))
	for i, text := range texts {
		var scores []metrics.ScoredTag
		e.pre.VectorizeInto(text, func(entries []vector.Entry) {
			scores = e.scores(entries)
		})
		var tags []string
		tags, e.sel = protocol.SelectTagsInto(nil, scores, e.sel, e.threshold, e.maxTags)
		if tags == nil {
			tags = []string{}
		}
		out[i] = tags
	}
	return out, nil
}
