package realnet

import (
	"errors"
	"slices"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/textproc"
	"repro/internal/vector"
)

// Ensemble scores documents against one or more model sets with the same
// accuracy-weighted log-odds vote Node.Suggest uses, packaged as a batch
// classification engine for internal/serving: AutoTagBatch answers one
// tag list per input text in input order. This is how a gossiped model
// generation becomes a serving shard — the cmd/p2pserve cluster installs
// one Ensemble per shard, all over the same immutable sets, through the
// serving Swap path.
//
// An Ensemble is NOT safe for concurrent use (it reuses per-instance
// scratch); this matches the serving Engine contract, where each shard is
// driven by exactly one goroutine. Build one Ensemble per shard; the
// underlying sets may be shared, they are read-only after construction.
type Ensemble struct {
	pre       *textproc.Preprocessor
	sets      []*ModelSet
	threshold float64
	maxTags   int
	vote      protocol.Pool       // ensemble vote, reused across documents
	sel       []metrics.ScoredTag // SelectTagsInto sort scratch, reused across documents
}

// NewEnsemble builds an engine over sets, assigning every tag scoring at
// or above threshold (falling back to the single best; 0 accepts every
// tag) and capping answers at maxTags (0 = unlimited). The sets must not
// be mutated afterwards. Every set votes at full trust.
func NewEnsemble(threshold float64, maxTags int, sets ...*ModelSet) (*Ensemble, error) {
	if len(sets) == 0 {
		return nil, errors.New("realnet: an ensemble needs at least one model set")
	}
	for _, ms := range sets {
		if ms == nil || len(ms.Tags()) == 0 {
			return nil, errors.New("realnet: ensemble over an empty model set")
		}
	}
	if threshold < 0 || threshold > 1 {
		return nil, errors.New("realnet: ensemble threshold outside [0,1]")
	}
	if maxTags < 0 {
		return nil, errors.New("realnet: negative ensemble maxTags")
	}
	return &Ensemble{
		pre:       newHashedPreprocessor(),
		sets:      sets,
		threshold: threshold,
		maxTags:   maxTags,
	}, nil
}

// scores pools every set's vote on one document, each at full trust.
func (e *Ensemble) scores(entries []vector.Entry) []metrics.ScoredTag {
	for _, ms := range e.sets {
		e.vote.Add(ms, entries, 1)
	}
	return e.vote.Scores()
}

// Suggest returns the full suggestion cloud for one document, sorted by
// descending score with name tie-breaks. The document streams from the
// pooled preprocessing workspace straight into fused scoring — no
// intermediate *vector.Sparse is materialized.
func (e *Ensemble) Suggest(text string) []metrics.ScoredTag {
	var out []metrics.ScoredTag
	e.pre.VectorizeInto(text, func(entries []vector.Entry) {
		out = e.scores(entries)
		slices.SortFunc(out, protocol.ByScore)
	})
	return out
}

// AutoTagBatch implements the serving engine contract: one non-nil tag
// list per input text, in input order. Every row is answerable (the sets
// are fixed at construction), so the error is always nil. Documents
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
