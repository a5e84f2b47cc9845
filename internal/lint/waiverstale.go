package lint

import (
	"repro/internal/lint/analysis"
)

// WaiverStale keeps the suppression system honest: a //dmtvet:allow
// comment whose analyzer no longer reports anything on the covered lines
// is itself a diagnostic. Waivers are point-in-time justifications; once
// the code they excused is gone, the stale comment would silently swallow
// the next genuine finding on that line.
//
// The check is implemented by the runner (AuditWaivers), which already
// tracks which waivers suppressed a diagnostic during the run: whatever
// remains unused when every analyzer has finished is stale.
var WaiverStale = &analysis.Analyzer{
	Name: "waiverstale",
	Doc: "a //dmtvet:allow waiver that no longer suppresses any diagnostic of its analyzer " +
		"is itself a diagnostic: delete it or re-justify it",
	AuditWaivers: true,
	Run:          func(*analysis.Pass) (any, error) { return nil, nil },
}
