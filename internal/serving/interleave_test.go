package serving

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
)

// replaySeeds are interleaving programs that once failed; they run before
// the generated ones. A failure names its seed — paste it here to replay.
var replaySeeds []int64

// TestSeededInterleavings drives random programs of Tag / TagBatch / Swap /
// cancel / Close against engines that answer only when the program hands
// out a token, and checks what must hold under every schedule: nothing
// hangs and every accepted row is answered (zero-drop), the books balance
// (accounting identity), no answer comes from a generation that was
// retired before its request was submitted — cached or coalesced ones
// included (generation purity) — and no engine call exceeds MaxBatch or
// overlaps another on the same engine.
func TestSeededInterleavings(t *testing.T) {
	programs := 1000
	if testing.Short() {
		programs = 200
	}
	for _, seed := range replaySeeds {
		runInterleaving(t, seed)
	}
	for i := 0; i < programs && !t.Failed(); i++ {
		runInterleaving(t, runner.DeriveSeed(13, "serving-interleave", strconv.Itoa(i)))
	}
}

// interleaving is one program's shared state.
type interleaving struct {
	t    *testing.T
	seed int64
	s    *Server
	cfg  Config
	gate chan struct{} // one token lets one engine call answer; closed = free-running
	wg   sync.WaitGroup

	started atomic.Int64 // newest generation handed to New or Swap
	live    atomic.Int64 // newest generation whose Swap has returned
	swapped atomic.Int64 // Swaps that returned nil

	rows    atomic.Int64 // document rows handed to any engine
	widest  atomic.Int64 // largest engine call
	overlap atomic.Bool  // two calls inside one engine at once

	// Rows callers asked for: definite ones were answered (tags or the
	// engine's error) and must be in Issued; maybe ones ended in a
	// context error or ErrClosed, which can strike either side of the
	// point where a row is counted.
	definite, maybe atomic.Int64
}

func (p *interleaving) errorf(format string, args ...any) {
	p.t.Helper()
	p.t.Errorf("seed %d: "+format, append([]any{p.seed}, args...)...)
}

// stepEngine answers "g<gen>:<text>" (failing the text "bad" the way
// AutoTagBatch does) once the program grants its call a token.
type stepEngine struct {
	p      *interleaving
	gen    int64
	inside atomic.Bool
}

func (e *stepEngine) AutoTagBatch(texts []string) ([][]string, error) {
	if !e.inside.CompareAndSwap(false, true) {
		e.p.overlap.Store(true)
	}
	defer e.inside.Store(false)
	<-e.p.gate
	e.p.rows.Add(int64(len(texts)))
	for n := int64(len(texts)); ; {
		w := e.p.widest.Load()
		if n <= w || e.p.widest.CompareAndSwap(w, n) {
			break
		}
	}
	out := make([][]string, len(texts))
	var err error
	for i, text := range texts {
		if text == "bad" {
			if err == nil {
				err = fmt.Errorf("engine: document %d: %w", i, errNoAnswer)
			}
			continue
		}
		out[i] = []string{fmt.Sprintf("g%d:%s", e.gen, text)}
	}
	return out, err
}

// engines labels n fresh engines with the next generation number.
func (p *interleaving) engines(n int) []Engine {
	gen := p.started.Add(1)
	out := make([]Engine, n)
	for i := range out {
		out[i] = &stepEngine{p: p, gen: gen}
	}
	return out
}

// checkRow judges one answered row against the generation floor its call
// read before submitting.
func (p *interleaving) checkRow(text string, floor int64, tags []string, err error) {
	p.t.Helper()
	if text == "bad" {
		if !errors.Is(err, errNoAnswer) || tags != nil {
			p.errorf("row %q = %v, %v; want the engine's error", text, tags, err)
		}
		return
	}
	if err != nil || len(tags) != 1 {
		p.errorf("row %q = %v, %v", text, tags, err)
		return
	}
	g, rest, _ := strings.Cut(tags[0], ":")
	gen, convErr := strconv.ParseInt(strings.TrimPrefix(g, "g"), 10, 64)
	if convErr != nil || rest != text {
		p.errorf("row %q answered %q", text, tags[0])
		return
	}
	if gen < floor || gen > p.started.Load() {
		p.errorf("row %q answered by generation %d; generations below %d were retired before it was submitted", text, gen, floor)
	}
}

// unanswered reports whether err is one of the ways a call may end without
// its rows being answered.
func unanswered(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed)
}

func (p *interleaving) tag(ctx context.Context, text string) {
	defer p.wg.Done()
	floor := p.live.Load()
	tags, err := p.s.Tag(ctx, text)
	if unanswered(err) {
		p.maybe.Add(1)
		return
	}
	p.definite.Add(1)
	p.checkRow(text, floor, tags, err)
}

func (p *interleaving) tagBatch(texts []string) {
	defer p.wg.Done()
	floor := p.live.Load()
	out, err := p.s.TagBatch(context.Background(), texts)
	if unanswered(err) {
		p.maybe.Add(int64(len(texts)))
		return
	}
	p.definite.Add(int64(len(texts)))
	if len(out) != len(texts) {
		p.errorf("TagBatch(%v) returned %d rows, %v", texts, len(out), err)
		return
	}
	for i, text := range texts {
		var rowErr error
		if out[i] == nil {
			rowErr = err
		}
		p.checkRow(text, floor, out[i], rowErr)
	}
}

func runInterleaving(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := &interleaving{t: t, seed: seed, gate: make(chan struct{}, 256)} // >= 3 tokens x 60 steps
	p.cfg = Config{MaxBatch: 1 + rng.Intn(4), MaxQueue: 1 + rng.Intn(4), CacheSize: 8 * rng.Intn(2)}
	var err error
	if p.s, err = New(p.cfg, p.engines(1+rng.Intn(3))...); err != nil {
		t.Fatal(err)
	}
	p.live.Store(1)

	texts := []string{"a", "b", "c", "d", "e", "bad"}
	pick := func() string { return texts[rng.Intn(len(texts))] }
	var cancels []context.CancelFunc
	var swapping atomic.Bool
	for step, steps := 0, 20+rng.Intn(40); step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 40:
			p.wg.Add(1)
			go p.tag(context.Background(), pick())
		case op < 50:
			ctx, cancel := context.WithCancel(context.Background())
			cancels = append(cancels, cancel)
			p.wg.Add(1)
			go p.tag(ctx, pick())
		case op < 58:
			if len(cancels) > 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		case op < 68:
			batch := make([]string, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = pick()
			}
			p.wg.Add(1)
			go p.tagBatch(batch)
		case op < 75:
			// One Swap at a time, so the k-th installs generation k+1
			// and the engines can be labelled before the call.
			if n := 1 + rng.Intn(3); swapping.CompareAndSwap(false, true) {
				next := p.engines(n)
				p.wg.Add(1)
				go func() {
					defer p.wg.Done()
					defer swapping.Store(false)
					if err := p.s.Swap(next...); err != nil {
						if err != ErrClosed { // lost the race with this program's Close
							p.errorf("Swap: %v", err)
						}
						return
					}
					p.swapped.Add(1)
					p.live.Store(next[0].(*stepEngine).gen)
				}()
			}
		default:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				p.gate <- struct{}{}
			}
		}
		runtime.Gosched()
	}

	// Half the programs close underneath whatever is still gated.
	closed := make(chan struct{})
	if rng.Intn(2) == 0 {
		go func() {
			p.s.Close()
			close(closed)
		}()
		runtime.Gosched()
	}
	close(p.gate)
	quiet := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(quiet)
	}()
	select {
	case <-quiet:
	case <-time.After(30 * time.Second):
		t.Fatalf("seed %d: calls still blocked 30s after every engine was released: %+v", seed, p.s.Stats())
	}
	for _, cancel := range cancels {
		cancel()
	}
	select {
	case <-closed:
	default:
		p.s.Close()
	}

	if _, err := p.s.Tag(context.Background(), "late"); err != ErrClosed {
		p.errorf("Tag after Close = %v", err)
	}
	st := p.s.Stats()
	if st.Requests != st.Served || st.Served != st.BatchedDocs || st.Served != p.rows.Load() {
		p.errorf("dropped work: requests %d served %d batched %d engine rows %d", st.Requests, st.Served, st.BatchedDocs, p.rows.Load())
	}
	if lo, hi := p.definite.Load(), p.definite.Load()+p.maybe.Load(); st.Issued < lo || st.Issued > hi {
		p.errorf("issued %d (served %d hits %d coalesced %d deduped %d) outside the %d..%d rows callers saw",
			st.Issued, st.Served, st.CacheHits, st.Coalesced, st.Deduped, lo, hi)
	}
	if st.MaxBatchSeen > p.cfg.MaxBatch || p.widest.Load() > int64(p.cfg.MaxBatch) {
		p.errorf("batch of %d (engines saw %d) exceeds MaxBatch %d", st.MaxBatchSeen, p.widest.Load(), p.cfg.MaxBatch)
	}
	if st.Generation != 1+p.swapped.Load() {
		p.errorf("generation %d after %d swaps", st.Generation, p.swapped.Load())
	}
	if p.overlap.Load() {
		p.errorf("two calls ran inside one engine at once")
	}
}
