package protocol

import (
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/svm"
	"repro/internal/vector"
)

// Bank is the calibrated one-against-all linear bank every protocol but
// CEMPaR scores with: per tag a linear SVM, its Platt calibration and its
// cross-validated accuracy (its weight in an ensemble vote). The maps are
// what training fills and the wire carries; scoring goes through a fused
// score matrix derived on first use (never serialized), with Platt and
// accuracy laid out in the matrix's tag order so a query does no per-tag
// map lookup. A Bank is immutable once scored or published and must be
// handled by pointer; the zero Bank scores no tags.
type Bank struct {
	Models   map[string]*svm.LinearModel
	Platt    map[string]svm.PlattParams
	Accuracy map[string]float64

	fuseOnce sync.Once
	fused    *svm.FusedLinear
	platt    []svm.PlattParams // indexed like fused.Tags()
	accuracy []float64         // indexed like fused.Tags()
}

// TrainBank trains one calibrated model per tag of the documents'
// universe — the multi-label → binary reduction of §2 — skipping tags
// whose training fails (one-class). post, when non-nil, rewrites each
// trained model before calibration (PACE prunes and noises what leaves
// the peer, realnet prunes), so Platt and accuracy describe the model
// actually published. Tags train over parallel workers (1 means serial,
// other values <= 0 mean GOMAXPROCS) and install in sorted-tag order: the
// bank is bit-identical at any worker count.
func TrainBank(docs []Doc, c float64, seed int64, parallel int, post func(*svm.LinearModel) *svm.LinearModel) *Bank {
	tags := TagUniverse(docs)
	opts := svm.LinearOptions{C: c, Seed: seed}
	type trained struct {
		model    *svm.LinearModel
		platt    svm.PlattParams
		accuracy float64
	}
	out, _ := runner.Map(len(tags), parallel, func(i int) (trained, error) {
		exs := BinaryExamples(docs, tags[i])
		m, err := svm.TrainLinear(exs, opts)
		if err != nil {
			return trained{}, nil
		}
		if post != nil {
			m = post(m)
		}
		// Cross-validated, not training, accuracy: the latter is ~1 for
		// every overfit small-data model and discriminates nothing.
		platt, acc := svm.CalibrateLinearCV(exs, opts, m, 3)
		return trained{model: m, platt: platt, accuracy: acc}, nil
	})
	b := &Bank{
		Models:   make(map[string]*svm.LinearModel, len(tags)),
		Platt:    make(map[string]svm.PlattParams, len(tags)),
		Accuracy: make(map[string]float64, len(tags)),
	}
	for i, tag := range tags {
		if out[i].model == nil {
			continue
		}
		b.Models[tag] = out[i].model
		b.Platt[tag] = out[i].platt
		b.Accuracy[tag] = out[i].accuracy
	}
	b.fuse()
	return b
}

// fuse builds the score matrix and its aligned calibration on first use
// (safe for concurrent callers); nil for an empty bank.
func (b *Bank) fuse() *svm.FusedLinear {
	b.fuseOnce.Do(func() {
		f := svm.NewFusedLinear(b.Models)
		if f == nil {
			return
		}
		for _, tag := range f.Tags() {
			b.platt = append(b.platt, b.Platt[tag])
			b.accuracy = append(b.accuracy, b.Accuracy[tag])
		}
		b.fused = f
	})
	return b.fused
}

// Tags returns the bank's tags in score order (sorted ascending). Callers
// must not modify the returned slice.
func (b *Bank) Tags() []string {
	if f := b.fuse(); f != nil {
		return f.Tags()
	}
	return nil
}

// Probs computes every tag's calibrated probability for a document in one
// pass over its entries, into dst (grown if needed) indexed like Tags():
// exactly LinearModel.Decision then PlattParams.Prob. The entries obey the
// vector.Sparse invariant (ascending ids, no duplicates) and are only
// read, never retained, so callers may pass pooled preprocessing scratch.
func (b *Bank) Probs(entries []vector.Entry, dst []float64) []float64 {
	f := b.fuse()
	if f == nil {
		return dst[:0]
	}
	dst = f.ScoreEntriesInto(entries, dst)
	for i, d := range dst {
		dst[i] = b.platt[i].Prob(d)
	}
	return dst
}

// Score is Probs as scored tags, one per tag in Tags() order, appended to
// dst[:0] (nil yields a fresh slice the caller may keep). dec is Probs'
// scratch; both come back, possibly regrown, for reuse.
func (b *Bank) Score(entries []vector.Entry, dec []float64, dst []metrics.ScoredTag) ([]metrics.ScoredTag, []float64) {
	dec = b.Probs(entries, dec)
	dst = slices.Grow(dst[:0], len(dec))
	for i, tag := range b.Tags() {
		dst = append(dst, metrics.ScoredTag{Tag: tag, Score: dec[i]})
	}
	return dst, dec
}

// Pool is the ensemble vote of several banks on one document: log-opinion
// pooling — average the calibrated log-odds, weighted by each model's
// accuracy over chance, then squash. Sharper than averaging probabilities,
// which dilutes confident minority votes toward 0.5. The zero Pool is
// ready, reusable after Scores, and not safe for concurrent use.
type Pool struct {
	logit, weight map[string]float64
	dec           []float64
}

// Add lets every model of b vote on the document with weight
// (accuracy - 0.5) * scale; models no better than chance are excluded.
// scale is the caller's say — PACE's proximity to the model's training
// data, realnet's trust in its origin: exactly 1.0 is bit-invisible
// (x*1.0 == x for every finite x), <= 0 excludes the bank. The per-tag
// sums accumulate in Add order, so it must be deterministic.
func (p *Pool) Add(b *Bank, entries []vector.Entry, scale float64) {
	if scale <= 0 {
		return
	}
	if p.logit == nil {
		p.logit, p.weight = map[string]float64{}, map[string]float64{}
	}
	p.dec = b.Probs(entries, p.dec)
	for i, tag := range b.Tags() {
		w := (b.accuracy[i] - 0.5) * scale
		if w <= 0 {
			continue
		}
		p.logit[tag] += w * logit(p.dec[i])
		p.weight[tag] += w
	}
}

// Scores returns the pooled probability of every tag that received a
// vote, in ascending tag order, and resets the pool for the next document.
func (p *Pool) Scores() []metrics.ScoredTag {
	out := make([]metrics.ScoredTag, 0, len(p.logit))
	for tag, sum := range p.logit {
		out = append(out, metrics.ScoredTag{Tag: tag, Score: Sigmoid(sum / p.weight[tag])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	clear(p.logit)
	clear(p.weight)
	return out
}

// logit is the inverse of the logistic function, clamped for stability.
func logit(p float64) float64 {
	const lim = 6.0
	switch {
	case p < 1e-9:
		return -lim
	case p > 1-1e-9:
		return lim
	}
	return math.Max(-lim, math.Min(lim, math.Log(p/(1-p))))
}
