package repro

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt is the formatting gate: every .go file in the tree, the
// separate cmd/bench module's included, must read as gofmt prints it.
// Files under a testdata directory are exempt, since the lint fixtures
// carry hand-aligned //want comments, and so is the benchmark's build
// output in .bench_build. The test only reads the files.
func TestGofmt(t *testing.T) {
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			bad = append(bad, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("gofmt -l lists unformatted files:\n%s", strings.Join(bad, "\n"))
	}
}
