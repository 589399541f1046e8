package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
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

// asMainEnv makes the test binary run emulate's own main, so the golden
// test drives the real command rather than a copy of its table loop.
const asMainEnv = "EMULATE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestEmulateGolden pins the emulated Table 1 machines at tiny scale:
// every runtime and SM/MP ratio, byte for byte.
func TestEmulateGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-scale", "tiny")
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("emulate -scale tiny: %v\n%s", err, stderr.Bytes())
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
