package doctagger

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsExist keeps README.md and doc.go honest about what the tree
// holds: every cmd/<name>, examples/<name> and ./bench they mention must be
// a directory, and every `make <target>` a target of the Makefile. Deleting
// a command without shrinking the docs turns this red.
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
	makeRef := regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9_-]*)")
	for _, doc := range []string{"README.md", "doc.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range dirRef.FindAll(text, -1) {
			dir := strings.TrimPrefix(string(ref), "./")
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory in this tree", doc, dir)
			}
		}
		for _, m := range makeRef.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
	}
}
