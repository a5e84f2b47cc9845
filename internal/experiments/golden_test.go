package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/p2pdmt"
)

// The golden digests pin the quick-scale tables to the bytes they had
// when testdata/golden_quick.txt was last regenerated: a refactor that
// moves a reported number fails the table's own Shape test. Regenerate
// with
//
//	go test ./internal/experiments -update
//
// and only when a change is meant to move a result (say which and why).
// Under -short the skipped tables keep their committed lines.

const goldenPath = "testdata/golden_quick.txt"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this run's tables")

// readGolden parses the "<table> <sha256 of CSV>" lines.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("golden digests: %v", err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if name, digest, ok := strings.Cut(line, " "); ok {
			golden[name] = digest
		}
	}
	return golden
}

// checkGolden compares tbl's CSV rendering against the committed digest
// for name, or records it under -update.
func checkGolden(t *testing.T, name string, tbl *p2pdmt.Table) {
	t.Helper()
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(tbl.CSV())))
	golden := readGolden(t)
	if !*update {
		if want, ok := golden[name]; !ok {
			t.Errorf("%s: no golden digest in %s (run with -update)", name, goldenPath)
		} else if got != want {
			t.Errorf("%s: quick-scale table moved: digest %s, golden %s\n%s", name, got, want, tbl.CSV())
		}
		return
	}
	golden[name] = got
	names := make([]string, 0, len(golden))
	for n := range golden {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, golden[n])
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatalf("golden digests: %v", err)
	}
}
