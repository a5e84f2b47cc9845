package simnet

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// statsDigest condenses every Stats counter, per-kind and per-node maps
// included (fmt prints maps in key order), into a short stable hex string.
func statsDigest(s Stats) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", s)))
	return fmt.Sprintf("%x", sum[:8])
}

// TestPinnedOutcomes pins four workloads' complete observable outcome —
// the per-node delivery checksum, the event count, the final clock and a
// digest of Stats. The constants were recorded on the earlier sharded
// engine (at one shard; its shard-count sweeps proved every count agreed),
// so they hold the event order (time, creating node, per-node counter) and
// the per-node random streams to what that engine produced.
func TestPinnedOutcomes(t *testing.T) {
	uniform := UniformLatency{Min: 8 * time.Millisecond, Max: 20 * time.Millisecond}
	cases := []struct {
		name  string
		run   func() (*Workload, int)
		sum   uint64
		evs   int
		now   time.Duration
		stats string
		// exercised, when set, reports whether the run hit the feature
		// the case exists for.
		exercised func(Stats) bool
	}{
		{
			name: "plain",
			run: func() (*Workload, int) {
				w := NewWorkload(WorkloadConfig{Nodes: 96, TTL: 12, Work: 8, Seed: 42})
				return w, w.Run()
			},
			sum: 0x7bf6dd9557d7997, evs: 1248, now: 213485903, stats: "2776cfb9cba5ef80",
		},
		{
			name: "drops",
			run: func() (*Workload, int) {
				w := NewWorkloadWithNetwork(WorkloadConfig{Nodes: 64, TTL: 10, Work: 4, Seed: 9},
					New(Options{Latency: uniform, Seed: 9, DropRate: 0.1}))
				return w, w.Run()
			},
			sum: 0x69b209451cdc1b58, evs: 323, now: 171459676, stats: "67d508472cac9b80",
			exercised: func(s Stats) bool { return s.MessagesDropped > 0 },
		},
		{
			// Kill/Revive/RemoveNode from a churn process and from scripted
			// system events.
			name: "churn",
			run: func() (*Workload, int) {
				w := NewWorkloadWithNetwork(WorkloadConfig{Nodes: 64, TTL: 200, Work: 4, Seed: 5},
					New(Options{Latency: uniform, Seed: 5}))
				n := w.Net
				StartChurn(n, ExponentialChurn{MeanUptime: 300 * time.Millisecond, MeanDowntime: 100 * time.Millisecond}, nil)
				n.ScheduleSystem(40*time.Millisecond, func() { n.Kill(3); n.Kill(10) })
				n.ScheduleSystem(90*time.Millisecond, func() { n.Revive(3); n.RemoveNode(17) })
				return w, n.RunFor(2 * time.Second)
			},
			sum: 0x694459ed77cdf5a3, evs: 1025, now: 2000000000, stats: "0316694fe0109411",
			// Churn cycles, and in-flight messages reach dead nodes.
			exercised: func(s Stats) bool { return s.Failures > 0 && s.Recoveries > 0 && s.MessagesDropped > 0 },
		},
		{
			// A zero minimum delay: messages may be due at the instant they
			// are sent.
			name: "zero-min-delay",
			run: func() (*Workload, int) {
				w := NewWorkloadWithNetwork(WorkloadConfig{Nodes: 32, TTL: 8, Work: 4, Seed: 13},
					New(Options{Latency: UniformLatency{Min: 0, Max: 10 * time.Millisecond}, Seed: 13}))
				return w, w.Run()
			},
			sum: 0xc124cab3a1e88b66, evs: 288, now: 66132137, stats: "202b959aeb3f895d",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, evs := c.run()
			st := w.Net.Stats()
			if c.exercised != nil && !c.exercised(st) {
				t.Fatalf("the run does not exercise what the case is for: %+v", st)
			}
			sum, now, stats := w.Checksum(), w.Net.Now(), statsDigest(st)
			if sum != c.sum || evs != c.evs || now != c.now || stats != c.stats {
				t.Errorf("outcome moved: sum %#x events %d clock %v stats %s; pinned %#x %d %v %s",
					sum, evs, int64(now), stats, c.sum, c.evs, int64(c.now), c.stats)
			}
		})
	}
}
