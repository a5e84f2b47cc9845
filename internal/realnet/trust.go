package realnet

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/runner"
)

// OriginTrust is one origin's ledger entry as exposed through TrustStats
// (and cmd/p2pserve's /v1/stats): its reputation Score, the admission
// outcomes that produced it, and whether the origin is presently
// quarantined. Admission runs on the quarantine alone — a quarantined
// origin's generations are refused before validation even runs; the
// score is reported, never used to weight a vote.
type OriginTrust struct {
	Score       float64 `json:"score"`
	Accepted    int64   `json:"accepted"`
	Rejected    int64   `json:"rejected"`
	Reprobes    int64   `json:"reprobes"`
	Quarantined bool    `json:"quarantined"`
}

// TrustStats snapshots the node's per-origin trust ledger.
type TrustStats struct {
	Origins map[string]OriginTrust `json:"origins"`
}

// trustLedger is the per-origin trust state behind the Byzantine admission
// pipeline. Every origin starts at full trust (score 1.0). A rejected publication halves the score and
// quarantines the origin for the configured window plus jitter drawn from
// the origin's runner.DeriveSeed stream (deterministic per (seed, origin),
// so tests can pin the re-probe schedule); an accepted one restores a
// quarter of the scale and lifts the quarantine. The first accepted
// publication after a quarantine window counts as a successful re-probe.
type trustLedger struct {
	mu            sync.Mutex
	seed          int64
	quarantineFor time.Duration
	maxOrigins    int
	origins       map[string]*originTrust
}

type originTrust struct {
	score            float64
	accepted         int64
	rejected         int64
	reprobes         int64
	quarantinedUntil time.Time
	rng              *rand.Rand
}

func newTrustLedger(seed int64, quarantineFor time.Duration, maxOrigins int) *trustLedger {
	return &trustLedger{
		seed:          seed,
		quarantineFor: quarantineFor,
		maxOrigins:    maxOrigins,
		origins:       make(map[string]*originTrust),
	}
}

// originLocked returns (creating if needed) the entry for origin. The
// table is capped like the transport's peer table: past the cap an
// ephemeral entry is returned so callers never nil-check, at the price of
// not persisting trust for origins beyond the cap — a forged-origin flood
// cannot grow the ledger without bound.
func (l *trustLedger) originLocked(origin string) *originTrust {
	o := l.origins[origin]
	if o == nil {
		o = &originTrust{
			score: 1,
			rng:   rand.New(rand.NewSource(runner.DeriveSeed(l.seed, "trust", origin))),
		}
		if len(l.origins) < l.maxOrigins {
			l.origins[origin] = o
		}
	}
	return o
}

// admitted reports whether a publication from origin may enter the
// validation pipeline at all: a quarantined origin is refused outright
// until its window (base + derived jitter) expires, after which the next
// publication is the re-probe.
func (l *trustLedger) admitted(origin string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := l.originLocked(origin)
	return o.quarantinedUntil.IsZero() || !now.Before(o.quarantinedUntil)
}

// reject records a failed admission: the origin's score halves and it is
// quarantined for the window plus up to 50% jitter from its derived stream.
func (l *trustLedger) reject(origin string, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := l.originLocked(origin)
	o.rejected++
	o.score /= 2
	jitter := time.Duration(o.rng.Int63n(int64(l.quarantineFor)/2 + 1))
	o.quarantinedUntil = now.Add(l.quarantineFor + jitter)
}

// accept records a successful admission: the score recovers a quarter of
// full scale (capped at 1) and any quarantine lifts. An accept that lifts
// a quarantine is a successful re-probe.
func (l *trustLedger) accept(origin string, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := l.originLocked(origin)
	o.accepted++
	if !o.quarantinedUntil.IsZero() && !now.Before(o.quarantinedUntil) {
		o.reprobes++
	}
	o.quarantinedUntil = time.Time{}
	o.score += 0.25
	if o.score > 1 {
		o.score = 1
	}
}

// snapshot builds a TrustStats copy.
func (l *trustLedger) snapshot() TrustStats {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := TrustStats{Origins: make(map[string]OriginTrust, len(l.origins))}
	for origin, o := range l.origins {
		out.Origins[origin] = OriginTrust{
			Score:       o.score,
			Accepted:    o.accepted,
			Rejected:    o.rejected,
			Reprobes:    o.reprobes,
			Quarantined: !o.quarantinedUntil.IsZero() && now.Before(o.quarantinedUntil),
		}
	}
	return out
}

// Trust snapshots the node's per-origin trust ledger.
func (n *Node) Trust() TrustStats { return n.trust.snapshot() }
