package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update rewrites the golden files instead of comparing:
//
//	go test ./cmd/paperbench -run Golden -update
//
// Every rewrite changes a published figure, so it must be named and
// justified in the change log.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// asMainEnv makes the test binary run paperbench's own main, so the
// golden test drives the real command (flags, runner, telemetry sinks)
// rather than a copy of its figure sequence.
const asMainEnv = "PAPERBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// paperbench returns a command that runs this test binary as paperbench.
func paperbench(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	return cmd
}

// goldenRuns are the pinned tiny-scale invocations. "OUT" in args is
// replaced by a fresh output directory; collect turns one run into named
// artifacts, compared byte for byte with testdata/golden/<name>/.
// Figure S1 (82 s at -j 2) is pinned by CI against
// testdata/golden/s1_tiny instead, rewritten with
// `go run ./cmd/paperbench -fig S1 -scale tiny -csv cmd/paperbench/testdata/golden/s1_tiny`.
var goldenRuns = []struct {
	name    string
	args    []string
	collect func(t *testing.T, stdout, stderr []byte, out string) map[string][]byte
}{
	{"all_tiny", []string{"-all", "-scale", "tiny", "-csv", "OUT"}, figureArtifacts},
	{"fig4_critpath_predict", []string{"-fig", "4", "-scale", "tiny", "-critpath", "-predict", "-csv", "OUT"}, figureArtifacts},
	// Fills all three observation rings: protocol events, thread spans
	// and causal edges.
	{"fig4_timeline", []string{"-fig", "4", "-scale", "tiny", "-timeline", "OUT", "-dumptrace", "16", "-critpath"}, timelineArtifacts},
}

func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every tiny-scale figure")
	}
	for _, r := range goldenRuns {
		t.Run(r.name, func(t *testing.T) {
			out := t.TempDir()
			args := make([]string, len(r.args))
			for i, a := range r.args {
				if a == "OUT" {
					a = out
				}
				args[i] = a
			}
			cmd := paperbench(args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("paperbench %s: %v\n%s", strings.Join(r.args, " "), err, stderr.Bytes())
			}
			checkGolden(t, filepath.Join("testdata", "golden", r.name), r.collect(t, stdout.Bytes(), stderr.Bytes(), out))
		})
	}
}

func TestUnknownScaleRejected(t *testing.T) {
	out, err := paperbench("-fig", "4", "-scale", "tyni").CombinedOutput()
	if err == nil || !strings.Contains(string(out), `unknown scale "tyni"`) {
		t.Errorf("-scale tyni: err %v, output:\n%s", err, out)
	}
}

// figureArtifacts is a figure run's stdout plus every CSV it wrote.
// Stderr carries only progress and host-dependent counts.
func figureArtifacts(t *testing.T, stdout, _ []byte, out string) map[string][]byte {
	got := readDir(t, out)
	got["stdout.txt"] = stdout
	return got
}

// timelineArtifacts is a SHA-256 manifest of the timeline directory (13
// MB of JSON and metrics snapshots, too big to commit) plus the per-run
// trace dumps from stderr. Runs finish in worker order, so the dump
// sections are sorted by their "== trace" header; heartbeat and summary
// lines depend on the host and are dropped.
func timelineArtifacts(t *testing.T, _, stderr []byte, out string) map[string][]byte {
	files := readDir(t, out)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var manifest bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&manifest, "%x  %s\n", sha256.Sum256(files[name]), name)
	}

	var sections []string
	for _, line := range strings.SplitAfter(string(stderr), "\n") {
		switch {
		case strings.HasPrefix(line, "== trace "):
			sections = append(sections, line)
		case strings.HasPrefix(line, "telemetry: "), strings.HasPrefix(line, "paperbench: "), line == "":
		case len(sections) == 0:
			t.Fatalf("stderr line outside a trace section: %q", line)
		default:
			sections[len(sections)-1] += line
		}
	}
	sort.Strings(sections)
	return map[string][]byte{
		"timeline.sha256": manifest.Bytes(),
		"tracedump.txt":   []byte(strings.Join(sections, "")),
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// checkGolden compares artifacts with the files in dir, naming each
// missing, extra or differing artifact and its first differing line.
func checkGolden(t *testing.T, dir string, got map[string][]byte) {
	if *update {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want := readDir(t, dir)
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		g, inGot := got[name]
		w, inWant := want[name]
		switch {
		case !inWant:
			t.Errorf("%s: produced but has no golden file (-update to accept)", path)
		case !inGot:
			t.Errorf("%s: no longer produced", path)
		case !bytes.Equal(g, w):
			gl, wl := strings.Split(string(g), "\n"), strings.Split(string(w), "\n")
			i := 0
			for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
				i++
			}
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "<end of file>"
			}
			t.Errorf("%s:%d differs (-update to accept)\n got: %s\nwant: %s", path, i+1, line(gl), line(wl))
		}
	}
}
