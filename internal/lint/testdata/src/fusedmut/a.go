// Fixture for dmtvet/fusedmut: the FusedLinear score matrix (and its
// kernel sibling KernelBank, at the end) is immutable outside its
// constructor. The fixture declares a structural twin of
// svm.FusedLinear (the analyzer matches the type by name, because the
// real type's fields are unexported and unreachable from a fixture
// package) plus the constructor and accessor shapes of the real API.
package fixture

type fusedCell struct {
	tag int32
	w   float64
}

type FusedLinear struct {
	tags  []string
	bias  []float64
	rows  []float64
	cells []fusedCell
}

// NewFusedLinear is the one place allowed to write fields.
func NewFusedLinear(tags []string, dim int) *FusedLinear {
	f := &FusedLinear{}
	f.tags = tags
	f.bias = make([]float64, len(tags))
	f.rows = make([]float64, dim*len(tags))
	for i := range f.rows {
		f.rows[i] = 0
	}
	f.cells = append(f.cells, fusedCell{tag: 0, w: 1})
	return f
}

// Tags hands out the backing slice read-only, like the real API.
func (f *FusedLinear) Tags() []string { return f.tags }

func mutateField(f *FusedLinear) {
	f.rows = nil // want `write to FusedLinear field rows outside NewFusedLinear`
}

func mutateElement(f *FusedLinear) {
	f.rows[0] = 1 // want `write to FusedLinear backing array element outside NewFusedLinear`
}

func mutateCell(f *FusedLinear) {
	f.cells[0].w = 2 // want `write to FusedLinear backing array element outside NewFusedLinear`
}

func mutateViaAlias(f *FusedLinear) {
	rows := f.rows
	rows[3] = 1 // want `write to FusedLinear backing array element outside NewFusedLinear`
}

func mutateViaAccessor(f *FusedLinear) {
	f.Tags()[0] = "hijacked" // want `write to FusedLinear backing array element outside NewFusedLinear`
}

func incrementElement(f *FusedLinear) {
	f.bias[0]++ // want `write to FusedLinear backing array element outside NewFusedLinear`
}

func readOnly(f *FusedLinear, dst []float64) []float64 {
	if cap(dst) < len(f.tags) {
		dst = make([]float64, len(f.tags))
	}
	dst = dst[:len(f.tags)]
	for i := range dst {
		dst[i] = f.bias[i] // writes go to the caller's dst, reads from f
	}
	cells := f.cells
	for _, c := range cells {
		dst[c.tag] += c.w
	}
	_ = f.Tags()
	return dst
}

func rebuild(tags []string) *FusedLinear {
	return NewFusedLinear(tags, 16) // the contract: construct, don't patch
}

func waived(f *FusedLinear) {
	//dmtvet:allow fusedmut fixture pins that a reasoned waiver suppresses the diagnostic
	f.rows = nil
}

// --- cross-function cases: the old per-function pass could not see into
// helper bodies, so mutation by proxy slipped through ---

// patchRows's summary records that it writes through its parameter.
func patchRows(rows []float64) {
	for i := range rows {
		rows[i] = 0
	}
}

func mutateViaHelper(f *FusedLinear) {
	patchRows(f.rows) // want `FusedLinear backing memory passed to repro/internal/svmfixture\.patchRows, which mutates its parameter`
}

func mutateAliasViaHelper(f *FusedLinear) {
	rows := f.rows
	patchRows(rows) // want `FusedLinear backing memory passed to repro/internal/svmfixture\.patchRows, which mutates its parameter`
}

// sumRows only reads; passing backing memory to it is fine.
func sumRows(rows []float64) float64 {
	t := 0.0
	for _, v := range rows {
		t += v
	}
	return t
}

func okHelperReads(f *FusedLinear) float64 {
	return sumRows(f.rows)
}

// --- KernelBank: the kernel sibling obeys the same contract ---

type KernelBank struct {
	tags  []string
	norms []float64
}

// NewKernelBank is the one place allowed to write KernelBank fields.
func NewKernelBank(tags []string, svs int) *KernelBank {
	b := &KernelBank{tags: tags}
	b.norms = make([]float64, svs)
	for i := range b.norms {
		b.norms[i] = 1
	}
	return b
}

func (b *KernelBank) Tags() []string { return b.tags }

func patchBankNorm(b *KernelBank) {
	b.norms[0] = 2 // want `write to KernelBank backing array element outside NewKernelBank`
}

func rebuildBank(tags []string) *KernelBank {
	return NewKernelBank(tags, 4) // every cascade constructs a fresh bank
}
