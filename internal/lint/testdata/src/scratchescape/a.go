// Fixture for dmtvet/scratchescape: pooled scratch must not escape the
// borrowing call.
package fixture

import (
	"sync"

	"repro/internal/vector"
)

type workspace struct {
	arena []byte
	spans []int
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace  { return wsPool.Get().(*workspace) }
func putWorkspace(w *workspace) { wsPool.Put(w) }

var published []byte

type holder struct {
	buf []byte
}

func escapeViaReturn() []byte {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return ws.arena // want `pooled scratch escapes the borrowing call via return`
}

func escapeViaReturnSlice() []byte {
	ws := getWorkspace()
	return ws.arena[:0] // want `pooled scratch escapes the borrowing call via return`
}

func escapeViaLocalAlias() []byte {
	ws := getWorkspace()
	buf := ws.arena
	trimmed := buf[1:]
	return trimmed // want `pooled scratch escapes the borrowing call via return`
}

func escapeViaField(h *holder) {
	ws := getWorkspace()
	h.buf = ws.arena // want `pooled scratch stored in a struct field`
}

func escapeViaPackageVar() {
	ws := getWorkspace()
	published = ws.arena // want `pooled scratch stored in package-level variable published`
}

func escapeViaChannel(ch chan []byte) {
	ws := getWorkspace()
	ch <- ws.arena // want `pooled scratch escapes the borrowing call via channel send`
}

func escapeViaDirectGet() *workspace {
	return wsPool.Get().(*workspace) // want `pooled scratch escapes the borrowing call via return`
}

func copyOutString() string {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return string(ws.arena) // conversion to string copies
}

func copyOutAppend(dst []byte) []byte {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return append(dst, ws.arena...) // append copies the bytes into dst
}

func internalReuse() int {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.arena = ws.arena[:0]
	ws.arena = append(ws.arena, 'x')
	ws.spans = append(ws.spans, len(ws.arena))
	return len(ws.spans)
}

func waivedReturn() []byte {
	ws := getWorkspace()
	//dmtvet:allow scratchescape fixture pins that a reasoned waiver suppresses the diagnostic
	return ws.arena
}

// --- function-value callback rule ---

func consume(b []byte) int { return len(b) }

func escapeViaCallbackParam(visit func([]byte)) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	visit(ws.arena) // want `pooled scratch passed to function value visit`
}

func escapeViaLocalFuncValue() {
	ws := getWorkspace()
	defer putWorkspace(ws)
	sink := func(b []byte) { published = b }
	sink(ws.arena) // want `pooled scratch passed to function value sink`
}

func okNamedFunctionCall() int {
	ws := getWorkspace()
	defer putWorkspace(ws)
	// Declared functions are checked on their own; the call is not an
	// escape at this site.
	return consume(ws.arena)
}

func okCallbackGetsCopy(visit func([]byte)) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	visit(append([]byte(nil), ws.arena...)) // append detaches the taint
}

func waivedCallback(visit func([]byte)) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	//dmtvet:allow scratchescape visit is consume-only by documented contract
	visit(ws.arena)
}

// --- cross-function cases: interprocedural summaries close the holes the
// old per-function pass provably missed (helper bodies were opaque) ---

// arenaOf's summary records that its parameter flows to its return value,
// so taint survives the call.
func arenaOf(ws *workspace) []byte { return ws.arena }

func escapeViaHelperReturn() []byte {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return arenaOf(ws) // want `pooled scratch escapes the borrowing call via return`
}

func escapeViaHelperAlias(h *holder) {
	ws := getWorkspace()
	buf := arenaOf(ws)
	h.buf = buf // want `pooled scratch stored in a struct field`
}

// stash's summary records that b escapes (stored into another object), so
// handing it pooled scratch publishes the buffer.
func stash(h *holder, b []byte) { h.buf = b }

func escapeViaHelperStore(h *holder) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	stash(h, ws.arena) // want `pooled scratch passed to repro/internal/textproc/dmtvetfixture\.stash, which retains or publishes its parameter`
}

// measure only reads its argument; no diagnostic.
func measure(b []byte) int { return len(b) }

func okHelperReads() int {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return measure(ws.arena)
}

// --- pooled score scratch with a closure-capture escape ---

type scoreScratch struct {
	scores []float64
}

var scorePool = sync.Pool{New: func() any { return new(scoreScratch) }}

func getScoreScratch() *scoreScratch { return scorePool.Get().(*scoreScratch) }

var retained func() []float64

func escapeViaClosureCapture() {
	sc := getScoreScratch()
	retained = func() []float64 { return sc.scores } // want `pooled scratch escapes the borrowing call via return`
}

// --- multi-value calls: a (T, error) result carries its argument's taint ---

type entryScratch struct {
	entries []vector.Entry
}

var entryPool = sync.Pool{New: func() any { return new(entryScratch) }}

func getEntryScratch() *entryScratch { return entryPool.Get().(*entryScratch) }

type sparseVec struct {
	entries []vector.Entry
}

// fromEntries stands in for vector.FromEntries, whose body a fixture's
// program cannot see: it wraps its argument without copying, behind an
// error result.
func fromEntries(entries []vector.Entry) (*sparseVec, error) {
	return &sparseVec{entries: entries}, nil
}

// finish is textproc's finishVector without its copy: the summary must
// record that ws flows through the (T, error) call to the result.
func finish(ws *entryScratch) *sparseVec {
	v, err := fromEntries(ws.entries)
	if err != nil {
		panic(err)
	}
	return v
}

func escapeViaTupleHelper() *sparseVec {
	ws := getEntryScratch()
	defer entryPool.Put(ws)
	return finish(ws) // want `pooled scratch escapes the borrowing call via return`
}

// finishCopy is finishVector as written: the entries are copied first.
func finishCopy(ws *entryScratch) *sparseVec {
	v, err := fromEntries(append([]vector.Entry(nil), ws.entries...))
	if err != nil {
		panic(err)
	}
	return v
}

func okTupleHelperCopies() *sparseVec {
	ws := getEntryScratch()
	defer entryPool.Put(ws)
	return finishCopy(ws)
}
