package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Trace; Parent is the
// span that caused this one (0 for the op's root). Times are nanoseconds
// since the recorder's epoch.
type Span struct {
	Trace, ID, Parent int32
	Name              spanName
	Start, End        int64
}

// spanName indexes spanNames: spans carry a byte, not a string.
type spanName uint8

const (
	spanOp spanName = iota
	spanVectorize
	spanScore
	spanSelect
	spanIssue
	spanSimRun
	spanServeWait
	spanServeEngine
	spanServeWake
	spanPublishCall
	spanDeliver
	spanInstall
	spanNewEnsemble
	spanSwap
	spanDial
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanOp:          "op",
	spanVectorize:   "textproc.vectorize",
	spanScore:       "svm.score",
	spanSelect:      "protocol.select",
	spanIssue:       "cempar.issue",
	spanSimRun:      "simnet.run",
	spanServeWait:   "serving.wait",
	spanServeEngine: "serving.engine",
	spanServeWake:   "serving.wake",
	spanPublishCall: "realnet.publish_call",
	spanDeliver:     "realnet.deliver",
	spanInstall:     "realnet.install",
	spanNewEnsemble: "realnet.new_ensemble",
	spanSwap:        "serving.swap",
	spanDial:        "realnet.dial",
}

// Recorder keeps spans in one preallocated slice and writes them out only
// after the measured window. Slots are claimed with an atomic counter, so
// goroutines record concurrently without a lock and without allocating;
// once the slice is full further spans are counted as dropped.
type Recorder struct {
	epoch   time.Time
	spans   []Span
	next    atomic.Int64
	dropped atomic.Int64
}

// spanCapacity bounds a traced slice: about 6 MB in memory.
const spanCapacity = 1 << 17

func newRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, capacity)}
}

// now is the recorder clock.
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// at converts a wall-clock instant to the recorder clock.
func (r *Recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// full reports whether the next span would be dropped.
func (r *Recorder) full() bool { return r.next.Load() >= int64(len(r.spans)) }

// add records a finished span and returns its id (0 when dropped).
func (r *Recorder) add(trace, parent int32, name spanName, start, end int64) int32 {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return 0
	}
	id := int32(i + 1)
	r.spans[i] = Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end}
	return id
}

// begin claims a span whose end is not known yet, so children can name it
// as their parent; finish it with end.
func (r *Recorder) begin(trace, parent int32, name spanName, start int64) int32 {
	return r.add(trace, parent, name, start, start)
}

func (r *Recorder) end(id int32, end int64) {
	if id > 0 {
		r.spans[id-1].End = end
	}
}

// recorded is the filled prefix; call it only after every recording
// goroutine has been joined.
func (r *Recorder) recorded() []Span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// selfTimes computes, per span name, the histogram of self times: a span's
// duration minus the part of it that its child spans cover (overlapping
// children are merged first, and clipped to the parent).
func selfTimes(spans []Span) (self, total [numSpanNames]*Hist) {
	for i := range self {
		self[i], total[i] = &Hist{}, &Hist{}
	}
	type interval struct{ start, end int64 }
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for _, s := range spans {
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name].Record(dur - covered)
		total[s.Name].Record(dur)
	}
	return self, total
}

// writeSpans dumps the spans as one CSV line each under dir.
func writeSpans(dir, workload string, seed int64, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,span,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.Trace, s.ID, s.Parent, spanNames[s.Name], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ledger is the "numbers add up" check: the stages' median self times,
// summed, against the median of the whole op. The residual is what no
// stage accounts for.
type ledger struct {
	root   *Hist
	stages []ledgerStage
}

type ledgerStage struct {
	name string
	self *Hist
}

// residual is 1 - sum(stage self p50) / op p50.
func (l *ledger) residual() float64 {
	root := l.root.P50()
	if root == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range l.stages {
		sum += s.self.P50()
	}
	return 1 - sum/root
}

// print writes the stage table: where one op's time went.
func (l *ledger) print(w io.Writer) {
	root := l.root.P50()
	fmt.Fprintf(w, "  ledger: op p50 %.1f us over %d ops\n", root/1e3, l.root.Count())
	for _, s := range l.stages {
		share := 0.0
		if root > 0 {
			share = s.self.P50() / root
		}
		tail, used := s.self.Quantile(0.99)
		fmt.Fprintf(w, "    %-24s self p50 %10.1f us  p%g %10.1f us  share %5.1f%%  n=%d\n",
			s.name, s.self.P50()/1e3, used*100, tail/1e3, share*100, s.self.Count())
	}
	fmt.Fprintf(w, "    %-24s %.3f\n", "residual ratio", l.residual())
}

// spanLedger builds the ledger of a span set — the root is spanOp, every
// other name that occurs is a stage — and returns the per-name self times
// it was built from.
func spanLedger(spans []Span) (*ledger, [numSpanNames]*Hist) {
	self, total := selfTimes(spans)
	l := &ledger{root: total[spanOp]}
	for name := spanOp + 1; name < numSpanNames; name++ {
		if self[name].Count() > 0 {
			l.stages = append(l.stages, ledgerStage{spanNames[name], self[name]})
		}
	}
	return l, self
}
