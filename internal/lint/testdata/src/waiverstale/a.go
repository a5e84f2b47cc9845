// Fixture for dmtvet/waiverstale: a //dmtvet:allow waiver that no longer
// suppresses any diagnostic of its analyzer is itself a diagnostic. The
// fixture runs detrand alongside the audit (type-checked under a
// deterministic package path), so it can pin all three behaviors: a used
// waiver stays silent, an unused waiver of a running analyzer is stale,
// and a waiver naming no analyzer of the suite is malformed.
package fixture

import "time"

// The waiver suppresses a real detrand finding: used, not stale.
func usedWaiver() time.Time {
	//dmtvet:allow detrand fixture pins that a used waiver is not reported stale
	return time.Now()
}

// The code this waiver excused is long gone; the waiver itself is now the
// finding (reported on the waiver comment's own line).
func staleWaiver() int {
	//dmtvet:allow detrand the clock read here was removed ages ago // want `stale waiver: no detrand diagnostic left to suppress`
	return 4
}

// fusedmut was deleted from the suite; a waiver still naming it can
// never be used, so it is reported rather than silently ignored.
func deletedAnalyzer() int {
	//dmtvet:allow fusedmut the analyzer this names is gone // want `malformed waiver: unknown analyzer "fusedmut"`
	return 5
}
