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
//	go test ./cmd/alewife-sim -update
//
// Every rewrite changes a published result, so it must be named and
// justified in the change log.
var update = flag.Bool("update", false, "rewrite testdata/golden/em3d_sm_tiny_trace16.txt")

// TestAlewifeSimGolden pins one point run byte for byte: em3d under
// shared memory at tiny scale, its runtime, time breakdown, volume and
// event tables, and the last 16 protocol events as obs.DumpEvents
// prints them.
func TestAlewifeSimGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-app", "em3d", "-mech", "sm", "-scale", "tiny", "-trace", "16"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("alewife-sim %s: exit status %d\n%s", strings.Join(args, " "), code, stderr.Bytes())
	}
	path := filepath.Join("testdata", "golden", "em3d_sm_tiny_trace16.txt")
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
// value or a failed run, 2 for an unknown flag.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-mech", "bogus"}, 1},
		{[]string{"-scale", "huge"}, 1},
		{[]string{"-app", "nope", "-scale", "tiny"}, 1},
		{[]string{"-scale", "tiny", "-cross", "100"}, 1},             // more cross-traffic than the bisection carries
		{[]string{"-scale", "tiny", "-cross", "4", "-xmsg", "0"}, 1}, // messages too small for a header
		{[]string{"-scale", "tiny", "-ideal-lat", "-5"}, 1},
		{[]string{"-scale", "tiny", "-cross", "-4"}, 1}, // a negative rate would run no traffic
		{[]string{"-scale", "tiny", "-cross", "NaN"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("alewife-sim %s: exit status %d, want %d\n%s", strings.Join(c.args, " "), code, c.want, stderr.Bytes())
		}
	}
}
