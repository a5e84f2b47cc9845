package simnet

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/runner"
)

// SessionModel draws node session (up) and downtime durations for a churn
// process, mirroring OverSim's lifetime churn models.
type SessionModel interface {
	// Uptime returns how long a node stays up before failing.
	Uptime(rng *rand.Rand) time.Duration
	// Downtime returns how long it stays down before rejoining.
	Downtime(rng *rand.Rand) time.Duration
}

// NoChurn never takes nodes down.
type NoChurn struct{}

// Uptime returns an effectively infinite session.
func (NoChurn) Uptime(*rand.Rand) time.Duration { return math.MaxInt64 / 4 }

// Downtime returns zero.
func (NoChurn) Downtime(*rand.Rand) time.Duration { return 0 }

// ExponentialChurn draws exponentially distributed session lengths, the
// classic memoryless churn model.
type ExponentialChurn struct {
	MeanUptime   time.Duration
	MeanDowntime time.Duration
}

// Uptime draws an exponential session length.
func (c ExponentialChurn) Uptime(rng *rand.Rand) time.Duration {
	return expDraw(rng, c.MeanUptime)
}

// Downtime draws an exponential downtime.
func (c ExponentialChurn) Downtime(rng *rand.Rand) time.Duration {
	return expDraw(rng, c.MeanDowntime)
}

func expDraw(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// ParetoChurn draws heavy-tailed session lengths (shape Alpha > 1), which
// measurement studies report for real file-sharing networks: most sessions
// are short but some nodes stay up very long.
type ParetoChurn struct {
	MinUptime    time.Duration
	Alpha        float64
	MeanDowntime time.Duration
}

// Uptime draws a Pareto session length.
func (c ParetoChurn) Uptime(rng *rand.Rand) time.Duration {
	alpha := c.Alpha
	if alpha <= 1 {
		alpha = 1.5
	}
	u := rng.Float64()
	if u == 0 {
		u = 1e-12
	}
	return time.Duration(float64(c.MinUptime) / math.Pow(u, 1/alpha))
}

// Downtime draws an exponential downtime.
func (c ParetoChurn) Downtime(rng *rand.Rand) time.Duration {
	return expDraw(rng, c.MeanDowntime)
}

// ChurnProcess drives a set of nodes up and down on a Network using a
// SessionModel. Create one with StartChurn; it schedules itself using
// system events so it keeps running while nodes are down. Every node's
// session lengths come from a private random stream derived from the run
// seed and the node id, so the churn schedule is independent of message
// traffic.
type ChurnProcess struct {
	net     *Network
	model   SessionModel
	nodes   []NodeID
	rngs    map[NodeID]*rand.Rand
	stopped bool
}

// StartChurn begins churning the given nodes (all current nodes when nil).
// Each node receives an initial uptime drawn from the model.
func StartChurn(net *Network, model SessionModel, nodes []NodeID) *ChurnProcess {
	if nodes == nil {
		nodes = net.Nodes()
	}
	cp := &ChurnProcess{net: net, model: model, nodes: nodes, rngs: make(map[NodeID]*rand.Rand, len(nodes))}
	if _, ok := model.(NoChurn); ok {
		return cp // nothing to schedule
	}
	for _, id := range nodes {
		cp.rngs[id] = rand.New(rand.NewSource(runner.DeriveSeed(net.seed, "churn", strconv.Itoa(int(id)))))
		cp.scheduleFailure(id)
	}
	return cp
}

// Stop halts the churn process; nodes stay in their current state.
func (cp *ChurnProcess) Stop() { cp.stopped = true }

func (cp *ChurnProcess) scheduleFailure(id NodeID) {
	up := cp.model.Uptime(cp.rngs[id])
	cp.net.ScheduleSystem(up, func() {
		if cp.stopped {
			return
		}
		cp.net.Kill(id)
		cp.scheduleRecovery(id)
	})
}

func (cp *ChurnProcess) scheduleRecovery(id NodeID) {
	down := cp.model.Downtime(cp.rngs[id])
	if down <= 0 {
		down = time.Millisecond
	}
	cp.net.ScheduleSystem(down, func() {
		if cp.stopped {
			return
		}
		cp.net.Revive(id)
		cp.scheduleFailure(id)
	})
}
