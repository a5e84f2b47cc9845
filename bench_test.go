package doctagger_test

// One benchmark per experiment of the evaluation suite (see DESIGN.md for
// the experiment index and EXPERIMENTS.md for the committed results). The
// paper is a demonstration paper without numeric result tables, so each
// benchmark regenerates the table its demo scenario would have produced.
// Benchmarks print their table on the first iteration and report the
// headline metric via b.ReportMetric.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The full suite takes a few minutes; individual experiments run with
// -bench=BenchmarkE1 etc.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	doctagger "repro"
	"repro/internal/experiments"
	"repro/internal/p2pdmt"
)

// benchScale holds experiment sizes for benchmarks. Override the sweep cap
// with REPRO_MAX_PEERS for larger machines.
func benchScale() experiments.Scale {
	sc := experiments.DefaultScale()
	if v := os.Getenv("REPRO_MAX_PEERS"); v != "" {
		var n int
		if _, err := fmt.Sscan(v, &n); err == nil && n > 0 {
			sc.MaxPeers = n
		}
	}
	return sc
}

// printOnce renders each experiment table a single time even when the
// benchmark framework re-runs the function with growing b.N.
var printedTables sync.Map

func emit(b *testing.B, tbl *p2pdmt.Table) {
	b.Helper()
	if _, already := printedTables.LoadOrStore(tbl.Title, true); !already {
		fmt.Printf("\n%s\n", tbl)
	}
}

// lastF1 extracts the final row's value in the named column as the
// benchmark's headline metric.
func lastF1(tbl *p2pdmt.Table, col int) float64 {
	if len(tbl.Rows) == 0 {
		return 0
	}
	var f float64
	fmt.Sscan(tbl.Rows[len(tbl.Rows)-1][col], &f)
	return f
}

func BenchmarkE1AccuracyVsPeers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E1AccuracyVsPeers(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
		b.ReportMetric(lastF1(tbl, 2), "microF1")
	}
}

func BenchmarkE2CommunicationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E2CommunicationCost(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

func BenchmarkE3TrainingFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E3TrainingFraction(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
		b.ReportMetric(lastF1(tbl, 2), "microF1")
	}
}

func BenchmarkE4Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E4Churn(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

func BenchmarkE5SizeSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E5SizeSkew(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
		b.ReportMetric(lastF1(tbl, 2), "microF1")
	}
}

func BenchmarkE6ClassSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E6ClassSkew(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
		b.ReportMetric(lastF1(tbl, 2), "microF1")
	}
}

func BenchmarkE7Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E7Topology(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

func BenchmarkE8PaceTopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E8PaceTopK(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
		b.ReportMetric(lastF1(tbl, 2), "microF1")
	}
}

func BenchmarkE9ConfidenceSlider(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E9ConfidenceSlider(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

func BenchmarkE10Refinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E10Refinement(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
		b.ReportMetric(lastF1(tbl, 2), "microF1")
	}
}

func BenchmarkF4TagCloud(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, cloud, err := experiments.F4TagCloud(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if _, already := printedTables.LoadOrStore("F4-cloud", true); !already {
			fmt.Printf("\n%s\n%s\n", tbl, cloud)
		}
	}
}

func BenchmarkA1CEMPaRAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.A1CEMPaRAblations(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

func BenchmarkA2Weighting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.A2Weighting(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

func BenchmarkA3DropRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.A3DropRate(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

func BenchmarkA4Privacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.A4Privacy(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tbl)
	}
}

// BenchmarkParallelSpeedup runs the E1 sweep fully serially and then
// fanned out over all cores, reporting the wall-clock ratio as the
// "speedup" metric (1.0 on a single-core machine; ≥ 2 expected on 4+
// cores). Both runs produce byte-identical tables — that contract is
// enforced by the determinism tests; this benchmark measures what the
// parallelism buys.
func BenchmarkParallelSpeedup(b *testing.B) {
	sc := experiments.QuickScale()
	var serialTotal, parallelTotal time.Duration
	for i := 0; i < b.N; i++ {
		serialScale := sc
		serialScale.Parallel = 1
		start := time.Now()
		if _, err := experiments.E1AccuracyVsPeers(serialScale); err != nil {
			b.Fatal(err)
		}
		serialTotal += time.Since(start)

		parallelScale := sc
		parallelScale.Parallel = 0 // all cores
		start = time.Now()
		if _, err := experiments.E1AccuracyVsPeers(parallelScale); err != nil {
			b.Fatal(err)
		}
		parallelTotal += time.Since(start)
	}
	if parallelTotal > 0 {
		b.ReportMetric(float64(serialTotal)/float64(parallelTotal), "speedup")
	}
}

// benchTagger builds one trained 8-peer CEMPaR swarm on a small two-topic
// corpus; repeated calls yield identically trained instances, which is what
// the serving pool requires of its shards.
func benchTagger(b *testing.B) *doctagger.Tagger {
	return benchProtoTagger(b, doctagger.ProtocolCEMPaR)
}

// BenchmarkTaggerSuggest measures the latency of one suggestion query on a
// trained swarm — the interactive cost a demo visitor would feel clicking
// "Suggest Tag".
func BenchmarkTaggerSuggest(b *testing.B) {
	tg := benchTagger(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.Suggest("a new album with a guitar melody"); err != nil {
			b.Fatal(err)
		}
	}
}

var servingQueries = []string{
	"a new album with a soft piano melody",
	"booking a flight and a hotel for the island",
	"drum track with a heavy bass rhythm",
	"train luggage on the station platform",
	"a symphony concert at the city hall",
	"passport and itinerary for the beach",
}

// runServingClients spreads b.N tagging calls over the given number of
// concurrent client goroutines, each cycling through the query mix.
func runServingClients(b *testing.B, clients int, tag func(q string) error) {
	b.Helper()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		share := b.N / clients
		if c < b.N%clients {
			share++
		}
		wg.Add(1)
		go func(c, share int) {
			defer wg.Done()
			for r := 0; r < share; r++ {
				if err := tag(servingQueries[(c+r)%len(servingQueries)]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c, share)
	}
	wg.Wait()
}

// BenchmarkServing compares three ways to put a trained swarm behind
// concurrent clients: "serial" funnels every request one at a time through
// a mutex-guarded Tagger (the baseline a naive service would ship),
// "batched" goes through the doctagger.Server micro-batching pool, and
// "cached" adds the request-level result cache in front of the same pool
// (the query mix cycles a small hot set, so most requests are hits). The
// batched variants also report the mean batch size the pool
// observed and the cached variant its hit count — the quantities that
// explain the throughput gaps.
func BenchmarkServing(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("serial/clients=%d", clients), func(b *testing.B) {
			tg := benchTagger(b)
			var mu sync.Mutex
			b.ResetTimer()
			runServingClients(b, clients, func(q string) error {
				mu.Lock()
				defer mu.Unlock()
				_, err := tg.AutoTag(q)
				return err
			})
		})
		b.Run(fmt.Sprintf("batched/clients=%d", clients), func(b *testing.B) {
			srv, err := doctagger.NewReplicatedServer(2, doctagger.ServerConfig{},
				func(int) (*doctagger.Tagger, error) { return benchTagger(b), nil })
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			b.ResetTimer()
			runServingClients(b, clients, func(q string) error {
				_, err := srv.Tag(ctx, q)
				return err
			})
			b.StopTimer()
			b.ReportMetric(srv.Stats().MeanBatchSize, "batchsize")
		})
		b.Run(fmt.Sprintf("cached/clients=%d", clients), func(b *testing.B) {
			srv, err := doctagger.NewReplicatedServer(2, doctagger.ServerConfig{CacheSize: 64},
				func(int) (*doctagger.Tagger, error) { return benchTagger(b), nil })
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			b.ResetTimer()
			runServingClients(b, clients, func(q string) error {
				_, err := srv.Tag(ctx, q)
				return err
			})
			b.StopTimer()
			st := srv.Stats()
			b.ReportMetric(st.MeanBatchSize, "batchsize")
			b.ReportMetric(float64(st.CacheHits), "hits")
		})
	}
}

// BenchmarkAutoTag measures single-document tagging — preprocess + scoring
// + tag selection — on a trained swarm. The cempar variant includes the
// simulated super-peer query round-trip (event scheduling dominates); the
// local variant predicts synchronously, isolating the pure
// preprocess+score fast path whose allocation budget this PR pins.
func BenchmarkAutoTag(b *testing.B) {
	for _, proto := range []string{doctagger.ProtocolCEMPaR, doctagger.ProtocolLocal} {
		b.Run(proto, func(b *testing.B) {
			tg := benchProtoTagger(b, proto)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tg.AutoTag("a new album with a guitar melody and a piano track"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchProtoTagger is benchTagger with a protocol choice.
func benchProtoTagger(b *testing.B, proto string) *doctagger.Tagger {
	b.Helper()
	tg, err := doctagger.New(doctagger.Config{Protocol: proto, Peers: 8, Regions: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	texts := []struct {
		tag  string
		docs []string
	}{
		{"music", []string{"guitar melody chord song album track", "piano concert symphony orchestra"}},
		{"travel", []string{"flight hotel passport beach island", "train station luggage itinerary map"}},
	}
	peer := 0
	for _, topic := range texts {
		for _, text := range topic.docs {
			for rep := 0; rep < 3; rep++ {
				if err := tg.AddDocument(peer%8, text, topic.tag); err != nil {
					b.Fatal(err)
				}
				peer++
			}
		}
	}
	if err := tg.Train(); err != nil {
		b.Fatal(err)
	}
	return tg
}
