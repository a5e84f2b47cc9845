package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// WaiverPrefix introduces a suppression comment. The full syntax is
//
//	//dmtvet:allow <analyzer> <reason>
//
// which silences diagnostics from <analyzer> on the comment's own line and
// on the line directly below it (so the waiver can ride at the end of the
// offending line or on its own line above). The reason is mandatory: a
// waiver without one — or naming an unknown analyzer — is itself reported
// as a diagnostic, so suppressions stay auditable. A well-formed waiver
// that suppresses nothing is reported too when the waiverstale audit is in
// the run set.
const WaiverPrefix = "//dmtvet:allow"

// driverName attributes diagnostics produced by the runner itself
// (malformed waivers) rather than by an analyzer.
const driverName = "dmtvet"

// extraKnown holds analyzer names waiver comments may legally reference
// beyond the current run set, so `dmtvet -run detrand` does not flag a
// scratchescape waiver as "unknown analyzer". The lint package registers
// its full registry at init.
var extraKnown = map[string]bool{}

// RegisterWaiverNames marks names as legal in //dmtvet:allow comments
// even when the named analyzer is not in the run set.
func RegisterWaiverNames(names ...string) {
	for _, n := range names {
		extraKnown[n] = true
	}
}

// ResultDiagnostic is one finding attributed to its analyzer, at a
// resolved position. Waived findings are retained (with Waived set) so
// machine consumers can see them; the text printers skip them.
type ResultDiagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
	Waived   bool
}

// waiverKey identifies one suppression: an analyzer name and a line it
// covers.
type waiverKey struct {
	file     string
	line     int
	analyzer string
}

// waiverRec is one well-formed waiver comment; used flips when it
// suppresses a diagnostic, and the stale audit reports the ones left
// false at the end of a run.
type waiverRec struct {
	pos      token.Pos
	analyzer string
	used     bool
}

// scanWaivers collects the waiver table for a package and reports
// malformed waiver comments. known maps valid analyzer names. The second
// result preserves source order for the stale audit.
func scanWaivers(fset *token.FileSet, pkg *Package, known map[string]bool) (map[waiverKey]*waiverRec, []*waiverRec, []ResultDiagnostic) {
	waived := make(map[waiverKey]*waiverRec)
	var recs []*waiverRec
	var diags []ResultDiagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, WaiverPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, WaiverPrefix)
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					diags = append(diags, driverDiag(fset, c.Pos(),
						"malformed waiver: missing analyzer name and reason (want //dmtvet:allow <analyzer> <reason>)"))
				case !known[fields[0]] && !extraKnown[fields[0]]:
					diags = append(diags, driverDiag(fset, c.Pos(),
						fmt.Sprintf("malformed waiver: unknown analyzer %q", fields[0])))
				case len(fields) < 2:
					diags = append(diags, driverDiag(fset, c.Pos(),
						fmt.Sprintf("malformed waiver: %s waiver needs a reason", fields[0])))
				default:
					rec := &waiverRec{pos: c.Pos(), analyzer: fields[0]}
					recs = append(recs, rec)
					p := fset.Position(c.Pos())
					waived[waiverKey{p.Filename, p.Line, fields[0]}] = rec
					waived[waiverKey{p.Filename, p.Line + 1, fields[0]}] = rec
				}
			}
		}
	}
	return waived, recs, diags
}

func driverDiag(fset *token.FileSet, pos token.Pos, msg string) ResultDiagnostic {
	p := fset.Position(pos)
	return ResultDiagnostic{
		Analyzer: driverName,
		File:     p.Filename, Line: p.Line, Col: p.Column,
		Message: msg,
	}
}

// RunPackage applies every analyzer to pkg within prog, marks findings
// suppressed by the package's waiver comments as Waived, and returns all
// diagnostics sorted by position. When the run set includes the waiver
// audit, well-formed waivers that suppressed nothing become diagnostics
// under the auditing analyzer's name.
func RunPackage(prog *Program, pkg *Package, analyzers []*Analyzer) ([]ResultDiagnostic, error) {
	fset := prog.Fset
	known := make(map[string]bool, len(analyzers))
	auditName := ""
	for _, a := range analyzers {
		known[a.Name] = true
		if a.AuditWaivers {
			auditName = a.Name
		}
	}
	waived, recs, diags := scanWaivers(fset, pkg, known)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Prog:      prog,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			p := fset.Position(d.Pos)
			rd := ResultDiagnostic{
				Analyzer: name,
				File:     p.Filename, Line: p.Line, Col: p.Column,
				Message: d.Message,
			}
			if rec := waived[waiverKey{p.Filename, p.Line, name}]; rec != nil {
				rec.used = true
				rd.Waived = true
			}
			diags = append(diags, rd)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	if auditName != "" {
		for _, rec := range recs {
			// Only waivers whose analyzer actually ran can be proven
			// stale; a subset run says nothing about the rest.
			if rec.used || !known[rec.analyzer] {
				continue
			}
			d := driverDiag(fset, rec.pos, fmt.Sprintf(
				"stale waiver: no %s diagnostic left to suppress on this or the next line; delete the waiver or re-justify it",
				rec.analyzer))
			d.Analyzer = auditName
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		di, dj := diags[i], diags[j]
		if di.File != dj.File {
			return di.File < dj.File
		}
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		if di.Col != dj.Col {
			return di.Col < dj.Col
		}
		return di.Analyzer < dj.Analyzer
	})
	return diags, nil
}

// RunModule loads the packages matched by patterns in the module rooted
// at moduleDir, builds the whole-program summaries, and applies the
// analyzers to every package. It returns every diagnostic, waived ones
// included, sorted by package then position, with absolute file paths.
func RunModule(moduleDir string, patterns []string, analyzers []*Analyzer) ([]ResultDiagnostic, error) {
	e := NewExports(moduleDir)
	listed, err := e.goList(patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := checkListed(e, fset, listed)
	if err != nil {
		return nil, err
	}
	prog := NewProgram(fset, pkgs)
	var all []ResultDiagnostic
	for _, pkg := range prog.Pkgs {
		diags, err := RunPackage(prog, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}

// RelPath renders file relative to root when it lies beneath it.
func RelPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}
