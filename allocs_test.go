//go:build !race

package doctagger

import (
	"testing"
)

// Allocation-regression pins for the end-to-end tagging path (build-gated
// out under -race, which instruments allocations).

const allocQuery = "a new album with a soft piano melody and a travel itinerary"

// trainedForAllocs builds the 4-peer, seed-11 swarm the budgets below are
// measured on, with its pools and scratch warmed by one AutoTagBatch.
func trainedForAllocs(t *testing.T, proto string) *Tagger {
	t.Helper()
	tg, err := New(Config{Protocol: proto, Peers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.AutoTagBatch([]string{allocQuery}); err != nil {
		t.Fatal(err)
	}
	return tg
}

// checkAllocs fails t when one call of op averages more than budget
// allocations.
func checkAllocs(t *testing.T, name string, budget float64, op func() error) {
	t.Helper()
	got := testing.AllocsPerRun(200, func() {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, budget)
	}
}

// TestStreamingAutoTagAllocBudget pins the pure local score path at ≤2
// allocs/op end to end: with the streaming pipeline — pooled workspace
// into fused scoring into SelectTagsInto — the only steady-state
// allocation left is the returned tag slice itself. A one-document
// AutoTagBatch adds only its row slice.
func TestStreamingAutoTagAllocBudget(t *testing.T) {
	tg := trainedForAllocs(t, ProtocolLocal)
	checkAllocs(t, "local AutoTag", 2, func() error {
		_, err := tg.AutoTag(allocQuery)
		return err
	})
	checkAllocs(t, "local one-document AutoTagBatch", 2, func() error {
		_, err := tg.AutoTagBatch([]string{allocQuery})
		return err
	})
}

// TestCEMPaRAutoTagAllocBudget pins CEMPaR on the same path: the query
// streams into PredictEntries, which copies the borrowed entries once, and
// a batch row costs what a single AutoTag does plus the row slice. What
// remains is the protocol's own work — DHT lookups, messages, per-query
// answer state.
func TestCEMPaRAutoTagAllocBudget(t *testing.T) {
	tg := trainedForAllocs(t, ProtocolCEMPaR)
	checkAllocs(t, "CEMPaR AutoTag", 29, func() error {
		_, err := tg.AutoTag(allocQuery)
		return err
	})
	checkAllocs(t, "CEMPaR one-document AutoTagBatch", 30, func() error {
		_, err := tg.AutoTagBatch([]string{allocQuery})
		return err
	})
}
