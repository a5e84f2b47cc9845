package realnet

import (
	"fmt"
	"math"
	"sort"
)

// maxTagNameLen bounds one tag name in an inbound model set; real tags are
// short words, so anything longer is an attack or corruption. maxSetTags
// bounds its tag count. maxModelDim is the hashed feature space every
// peer vectorizes into (newHashedPreprocessor's HashDim): a wider model
// means nothing to a peer, and the cap bounds the score matrix's per-
// feature row index at 256 KB.
const (
	maxTagNameLen = 256
	maxSetTags    = 4096
	maxModelDim   = 1 << 16
)

// finite reports whether x is a usable weight: not NaN, not ±Inf.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// validateModelSet is the structural half of the Byzantine admission
// pipeline: every inbound generation's set passes it before it may be
// installed, relayed or built into an ensemble. It enforces the shape
// caps (tag count, tag name length, model dimension) and scans every
// number the vote will consume (the non-zero weights, bias, Platt
// calibration, accuracy) for NaN/Inf, so a poisoned set cannot turn every
// answer into NaN. Index order and range need no check here: the wire
// decoder refuses any set whose entries are not strictly ascending below
// their model's dimension. Tags are checked in sorted order so the
// reported error is deterministic for a given set.
func validateModelSet(ms *ModelSet) error {
	if ms == nil || len(ms.Models) == 0 {
		return fmt.Errorf("realnet: model set is empty")
	}
	if len(ms.Models) > maxSetTags {
		return fmt.Errorf("realnet: model set has %d tags, cap is %d", len(ms.Models), maxSetTags)
	}
	tags := make([]string, 0, len(ms.Models))
	for tag := range ms.Models {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		if tag == "" {
			return fmt.Errorf("realnet: model set has an empty tag name")
		}
		if len(tag) > maxTagNameLen {
			return fmt.Errorf("realnet: tag name of %d bytes exceeds cap %d", len(tag), maxTagNameLen)
		}
		m := ms.Models[tag]
		if m == nil {
			return fmt.Errorf("realnet: tag %q has no model", tag)
		}
		if m.Dim > maxModelDim {
			return fmt.Errorf("realnet: tag %q claims dimension %d, cap is %d", tag, m.Dim, maxModelDim)
		}
		if !finite(m.Bias) {
			return fmt.Errorf("realnet: tag %q has non-finite bias", tag)
		}
		for k, w := range m.Value {
			if !finite(w) {
				return fmt.Errorf("realnet: tag %q has non-finite weight at %d", tag, m.Index[k])
			}
		}
		p := ms.Platt[tag]
		if !finite(p.A) || !finite(p.B) {
			return fmt.Errorf("realnet: tag %q has non-finite Platt calibration", tag)
		}
		acc := ms.Accuracy[tag]
		if !finite(acc) || acc < 0 || acc > 1 {
			return fmt.Errorf("realnet: tag %q reports accuracy %v outside [0,1]", tag, acc)
		}
	}
	return nil
}
