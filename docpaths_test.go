package doctagger

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsExist keeps the docs honest about what the tree holds: every
// cmd/<name>, examples/<name> and ./bench that README.md or the comments of
// any non-test Go file mention must be a directory, and every `make
// <target>` a target of the Makefile. Deleting a command without shrinking
// the docs turns this red.
func TestDocPathsExist(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	dirRef := regexp.MustCompile(`\b(?:cmd|examples)/[A-Za-z0-9_]+|\./bench\b`)
	// Only code-quoted or command-line `make` counts; prose may "make it so".
	// Go comments keep their "//" markers, so there only the quoted form can
	// match.
	makeRef := regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9_-]*)")
	for _, doc := range docTexts(t) {
		for _, ref := range dirRef.FindAll(doc.text, -1) {
			dir := strings.TrimPrefix(string(ref), "./")
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory in this tree", doc.name, dir)
			}
		}
		for _, m := range makeRef.FindAllSubmatch(doc.text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc.name, m[1])
			}
		}
	}
}

type docText struct {
	name string
	text []byte
}

// docTexts returns README.md and then, in path order, the comments of
// every non-test Go file in the module (doc.go included), one comment per
// line with its markers kept.
func docTexts(t *testing.T) []docText {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs := []docText{{"README.md", readme}}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var text []byte
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text = append(append(text, c.Text...), '\n')
			}
		}
		docs = append(docs, docText{path, text})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs
}
