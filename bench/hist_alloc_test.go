//go:build !race

package main

import "testing"

// TestHistRecordAllocs pins Record at zero allocations (gated off under
// -race, which instruments allocations, like the repo's other budgets).
func TestHistRecordAllocs(t *testing.T) {
	var h Hist
	v := int64(1)
	if got := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*3 + 1
		if v > histMaxVal {
			v = 1
		}
	}); got != 0 {
		t.Errorf("Hist.Record: %.1f allocs/op, want 0", got)
	}
	rec := newRecorder(4096)
	if got := testing.AllocsPerRun(1000, func() {
		rec.add(1, 0, spanOp, rec.now(), rec.now())
	}); got != 0 {
		t.Errorf("Recorder.add: %.1f allocs/op, want 0", got)
	}
}
