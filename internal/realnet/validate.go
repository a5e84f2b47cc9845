package realnet

import (
	"fmt"
	"math"
	"sort"
)

// maxTagNameLen bounds one tag name in an inbound model set; real tags are
// short words, so anything longer is an attack or corruption.
const maxTagNameLen = 256

// finite reports whether x is a usable weight: not NaN, not ±Inf.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// validateModelSet is the structural half of the Byzantine admission
// pipeline: every inbound generation's set passes it before it may be
// installed, relayed or built into an ensemble. It enforces the shape caps (tag count, tag name length, dense
// dimension) and scans every number the vote will consume (weights, bias,
// Platt calibration, accuracy) for NaN/Inf, so a poisoned set cannot turn
// every answer into NaN. Tags are checked in sorted order so the reported
// error is deterministic for a given set.
func validateModelSet(ms *ModelSet, maxTags, maxDim int) error {
	if ms == nil || len(ms.Models) == 0 {
		return fmt.Errorf("realnet: model set is empty")
	}
	if len(ms.Models) > maxTags {
		return fmt.Errorf("realnet: model set has %d tags, cap is %d", len(ms.Models), maxTags)
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
		if len(m.W) > maxDim {
			return fmt.Errorf("realnet: tag %q claims dimension %d, cap is %d", tag, len(m.W), maxDim)
		}
		if !finite(m.Bias) {
			return fmt.Errorf("realnet: tag %q has non-finite bias", tag)
		}
		for i, w := range m.W {
			if !finite(w) {
				return fmt.Errorf("realnet: tag %q has non-finite weight at %d", tag, i)
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
