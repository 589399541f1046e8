package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden file instead of comparing:
//
//	go test ./cmd/emulate -update
//
// Every rewrite changes a published result, so it must be named and
// justified in the change log.
var update = flag.Bool("update", false, "rewrite testdata/golden/tiny.txt")

// TestEmulateGolden pins the emulated Table 1 machines at tiny scale:
// every runtime and SM/MP ratio, byte for byte.
func TestEmulateGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "tiny"}, &stdout, &stderr); code != 0 {
		t.Fatalf("emulate -scale tiny: exit status %d\n%s", code, stderr.Bytes())
	}
	path := filepath.Join("testdata", "golden", "tiny.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s differs at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}

// TestExitStatus pins the exit statuses: 0 for -h, 1 for a bad flag
// value, 2 for an unknown flag. A bad value fails before the table's
// title is printed.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-scale", "huge"}, 1},
		{[]string{"-app", "nope", "-scale", "tiny"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.want {
			t.Errorf("emulate %s: exit status %d, want %d\n%s", strings.Join(c.args, " "), code, c.want, stderr.Bytes())
		}
		if code != 0 && stdout.Len() > 0 {
			t.Errorf("emulate %s: exit status %d after writing stdout:\n%s", strings.Join(c.args, " "), code, stdout.Bytes())
		}
	}
}
