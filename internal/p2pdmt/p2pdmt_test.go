package p2pdmt

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/simnet"
)

// fastConfig returns a small, quick experiment configuration.
func fastConfig(proto ProtocolKind) Config {
	corpus := dataset.DefaultConfig()
	corpus.DocsPerUserMin = 20
	corpus.DocsPerUserMax = 40
	corpus.NumTags = 8
	return Config{
		Peers:    8,
		Protocol: proto,
		Corpus:   corpus,
		EvalDocs: 30,
		Seed:     7,
	}
}

func TestRunAllProtocols(t *testing.T) {
	results := map[ProtocolKind]*Result{}
	for _, proto := range []ProtocolKind{ProtoLocal, ProtoCentralized, ProtoPACE, ProtoCEMPaR} {
		res, err := Run(fastConfig(proto))
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.TotalQueries == 0 || res.Eval.Docs() == 0 {
			t.Fatalf("%s: no queries evaluated", proto)
		}
		if res.FailedQueries > 0 {
			t.Errorf("%s: %d failed queries without churn", proto, res.FailedQueries)
		}
		if f1 := res.Eval.MicroF1(); f1 <= 0.2 || f1 > 1 {
			t.Errorf("%s: implausible F1 %v", proto, f1)
		}
		results[proto] = res
	}
	// Expected shape: collaborative protocols beat chance and the
	// centralized baseline beats local-only.
	if results[ProtoCentralized].Eval.MicroF1() <= results[ProtoLocal].Eval.MicroF1() {
		t.Errorf("centralized (%v) should beat local (%v)",
			results[ProtoCentralized].Eval.MicroF1(), results[ProtoLocal].Eval.MicroF1())
	}
	// Traffic shape: local sends nothing, PACE queries are free.
	if results[ProtoLocal].TrainCost.Bytes != 0 {
		t.Error("local baseline should send no training traffic")
	}
	if results[ProtoPACE].QueryCost.Bytes != 0 {
		t.Error("PACE queries should be local (0 bytes)")
	}
	if results[ProtoPACE].TrainCost.Bytes == 0 || results[ProtoCEMPaR].TrainCost.Bytes == 0 {
		t.Error("P2P protocols must pay training traffic")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(fastConfig(ProtoCEMPaR))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig(ProtoCEMPaR))
	if err != nil {
		t.Fatal(err)
	}
	if a.Eval.MicroF1() != b.Eval.MicroF1() || a.TrainCost.Bytes != b.TrainCost.Bytes {
		t.Error("same config produced different results")
	}
}

// TestRunParallelMatchesSerial is the determinism contract of the parallel
// training phases: for every protocol, a run whose CPU-bound work fans out
// over many workers must be bit-identical to a fully serial run of the
// same config.
func TestRunParallelMatchesSerial(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoLocal, ProtoCentralized, ProtoPACE, ProtoCEMPaR} {
		serialCfg := fastConfig(proto)
		serialCfg.Parallel = 1
		serial, err := Run(serialCfg)
		if err != nil {
			t.Fatalf("%s serial: %v", proto, err)
		}
		parallelCfg := fastConfig(proto)
		parallelCfg.Parallel = 8
		parallel, err := Run(parallelCfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", proto, err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("%s diverged:\nserial:   %s\nparallel: %s", proto, serial, parallel)
		}
		if serial.Eval.MicroF1() != parallel.Eval.MicroF1() ||
			serial.Eval.MacroF1() != parallel.Eval.MacroF1() ||
			serial.MeanP1 != parallel.MeanP1 ||
			serial.TrainCost != parallel.TrainCost ||
			serial.QueryCost != parallel.QueryCost ||
			serial.TrainSimTime != parallel.TrainSimTime {
			t.Errorf("%s: parallel run not bit-identical to serial", proto)
		}
	}
}

// digest flattens every observable of a Result into one comparable string.
func digest(r *Result) string {
	return fmt.Sprintf("%s|microF1=%v|macroF1=%v|P@1=%v|oneErr=%v|train=%+v|query=%+v|simTime=%v|failed=%d|total=%d|skipped=%d|liveness=%q",
		r.String(), r.Eval.MicroF1(), r.Eval.MacroF1(), r.MeanP1, r.OneError,
		r.TrainCost, r.QueryCost, r.TrainSimTime, r.FailedQueries, r.TotalQueries,
		r.SkippedOffline, r.LivenessMap)
}

// TestRunUnknownProtocol: a config no run can honour is refused by Run
// and by RunWithData before any data is generated or vectorized (the nil
// corpus would panic if RunWithData touched it).
func TestRunUnknownProtocol(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"protocol", func(c *Config) { c.Protocol = "nope" }},
		{"threshold-negative", func(c *Config) { c.Threshold = -1 }},
		{"threshold-above-one", func(c *Config) { c.Threshold = 2 }},
		{"threshold-nan", func(c *Config) { c.Threshold = nan }},
		{"drop-negative", func(c *Config) { c.DropRate = -0.1 }},
		{"drop-above-one", func(c *Config) { c.DropRate = 1.5 }},
		{"drop-nan", func(c *Config) { c.DropRate = nan }},
		{"train-frac-negative", func(c *Config) { c.TrainFrac = -0.2 }},
		{"train-frac-above-one", func(c *Config) { c.TrainFrac = 1.5 }},
		{"train-frac-nan", func(c *Config) { c.TrainFrac = nan }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := fastConfig(ProtoLocal)
			c.edit(&cfg)
			if _, err := RunWithData(cfg, nil, nil, nil); err == nil {
				t.Error("RunWithData accepted the config")
			}
			if _, err := Run(cfg); err == nil {
				t.Error("Run accepted the config")
			}
		})
	}
}

func TestRunWithChurn(t *testing.T) {
	cfg := fastConfig(ProtoPACE)
	cfg.Churn = simnet.ExponentialChurn{MeanUptime: 2 * time.Minute, MeanDowntime: time.Minute}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedOffline == 0 {
		t.Log("no owners offline during eval (possible but unlikely)")
	}
	if res.FailedQueries > 0 {
		t.Errorf("PACE should not fail issued queries under churn: %d", res.FailedQueries)
	}
}

func TestDistributionNatural(t *testing.T) {
	docs := []dataset.Document{
		{ID: 0, User: 0}, {ID: 1, User: 1}, {ID: 2, User: 2}, {ID: 3, User: 0},
	}
	per := Distribution{}.Assign(docs, 3)
	if len(per[0]) != 2 || len(per[1]) != 1 || len(per[2]) != 1 {
		t.Errorf("natural assignment = %v", per)
	}
}

func TestDistributionSizeSkew(t *testing.T) {
	var docs []dataset.Document
	for i := 0; i < 300; i++ {
		docs = append(docs, dataset.Document{ID: i, User: i % 10})
	}
	per := Distribution{SizeZipf: 1.2, Seed: 3}.Assign(docs, 10)
	total := 0
	for p, ds := range per {
		if len(ds) == 0 {
			t.Errorf("peer %d got no documents", p)
		}
		total += len(ds)
	}
	if total != 300 {
		t.Errorf("lost documents: %d", total)
	}
	if len(per[0]) <= len(per[9]) {
		t.Errorf("zipf skew failed: peer0=%d peer9=%d", len(per[0]), len(per[9]))
	}
}

func TestDistributionClassSort(t *testing.T) {
	var docs []dataset.Document
	tags := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		docs = append(docs, dataset.Document{ID: i, User: i % 4, Tags: []string{tags[i%4]}})
	}
	per := Distribution{ClassSort: true, Seed: 3}.Assign(docs, 4)
	// Each peer should be dominated by few tags.
	for p, ds := range per {
		counts := map[string]int{}
		for _, d := range ds {
			counts[d.Tags[0]]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if float64(max)/float64(len(ds)) < 0.5 {
			t.Errorf("peer %d not class-skewed: %v", p, counts)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "col1", "col2")
	tbl.AddRow("x", 0.12345)
	tbl.AddRow(7, "y")
	out := tbl.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "0.1235") {
		t.Errorf("table output:\n%s", out)
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "col1,col2\n") {
		t.Errorf("csv output:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Errorf("csv rows = %d", len(lines))
	}
}

func TestVisualizeRing(t *testing.T) {
	net := simnet.New(simnet.Options{})
	for i := 0; i < 70; i++ {
		net.AddNode(simnet.NodeID(i), simnet.HandlerFunc(func(*simnet.Network, simnet.Message) {}))
	}
	net.Kill(3)
	out := VisualizeRing(net)
	if !strings.Contains(out, "69/70 nodes alive") {
		t.Errorf("viz:\n%s", out)
	}
	if !strings.Contains(out, "·") || !strings.Contains(out, "●") {
		t.Error("viz missing glyphs")
	}
	// 70 nodes should wrap onto two lines.
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3 {
		t.Errorf("viz lines = %d", len(lines))
	}
}

func TestDefaultsFillEverything(t *testing.T) {
	cfg := Defaults(Config{})
	if cfg.Peers == 0 || cfg.Protocol == "" || cfg.TrainFrac == 0 ||
		cfg.Threshold == 0 ||
		cfg.Corpus.Users != cfg.Peers {
		t.Errorf("defaults incomplete: %+v", cfg)
	}
}
