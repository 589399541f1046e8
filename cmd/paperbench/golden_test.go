package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// update rewrites the golden files instead of comparing:
//
//	go test ./cmd/paperbench -run Golden -update
//
// Every rewrite changes a published figure, so it must be named and
// justified in the change log.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// asMainEnv makes the test binary run paperbench's main, so one test
// can check the real exit status and stderr of the command.
const asMainEnv = "PAPERBENCH_TEST_AS_MAIN"

// cacheDir is the -cache directory the golden runs marked CACHE share:
// one per test binary, empty until all_tiny, which runs first, fills it.
var cacheDir string

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
	}
	dir, err := os.MkdirTemp("", "paperbench-cache")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cacheDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// paperbench runs paperbench in-process and returns its exit status,
// stdout and stderr.
func paperbench(args ...string) (code int, stdout, stderr []byte) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.Bytes(), errOut.Bytes()
}

// goldenRuns are the pinned tiny-scale invocations. An "OUT" prefix in
// args is replaced by a fresh output directory, and "CACHE" by cacheDir;
// collect turns one run into named artifacts, compared byte for byte
// with testdata/golden/<name>/. all_tiny simulates its plain runs from
// scratch and stores them in cacheDir, and the two runs after it that
// repeat most of them read them from disk. Every other run simulates
// from scratch, so each execution path (plain, -predict, -critpath,
// faults, noise, -timeline, -runlog) keeps a run that does.
// Figure S1 (56 s at -j 2 on a 2-vCPU VM) is pinned by CI against
// testdata/golden/s1_tiny instead, rewritten with
// `go run ./cmd/paperbench -fig S1 -scale tiny -csv cmd/paperbench/testdata/golden/s1_tiny`.
// faultSpec is the fault schedule of the faulted golden runs.
const faultSpec = "jitter:max=200ns,prob=0.1;outage:node=*,start=10us,dur=2us,every=50us;stall:node=5,start=5us,dur=3us,every=40us"

var goldenRuns = []struct {
	name    string
	args    []string
	collect func(t *testing.T, stdout, stderr []byte, out string) map[string][]byte
}{
	{"all_tiny", []string{"-all", "-scale", "tiny", "-cache", "CACHE", "-csv", "OUT"}, figureArtifacts},
	// -predicterr 15 fails the run if the dependency-graph model leaves
	// its committed error bound.
	{"fig4_critpath_predict", []string{"-fig", "4", "-scale", "tiny", "-critpath", "-predict", "-predicterr", "15", "-csv", "OUT"}, figureArtifacts},
	// The predicted Figures 8-10, the hybrid Figure 1/2 regions and the
	// graph-vs-closed-form table.
	{"all_tiny_predict", []string{"-all", "-scale", "tiny", "-predict", "-cache", "CACHE", "-csv", "OUT"}, figureArtifacts},
	// The simulate-on-demand validation set of a pruned sweep.
	{"fig10_prune_em3d", []string{"-fig", "10", "-scale", "tiny", "-app", "em3d", "-predict", "-prune", "-cache", "CACHE", "-csv", "OUT"}, figureArtifacts},
	// Noise and delay runs pass through every app's compute and
	// message phases.
	{"s2_tiny", []string{"-fig", "S2", "-scale", "tiny", "-noiseseeds", "4", "-csv", "OUT"}, figureArtifacts},
	// Jitter, link outages and drain stalls on every Figure 4 run.
	{"fig4_faults", []string{"-fig", "4", "-scale", "tiny", "-faults", faultSpec, "-seed", "3", "-csv", "OUT"}, figureArtifacts},
	// Fault and noise clauses on one machine, each drawn from its own
	// seed.
	{"s2_em3d_faults", []string{"-fig", "S2", "-scale", "tiny", "-app", "em3d", "-noiseseeds", "2", "-faults", faultSpec, "-seed", "3", "-csv", "OUT"}, figureArtifacts},
	// Fills all three observation rings: protocol events, thread spans
	// and causal edges.
	{"fig4_timeline", []string{"-fig", "4", "-scale", "tiny", "-timeline", "OUT", "-dumptrace", "16", "-critpath"}, timelineArtifacts},
	{"s2_em3d_runlog", runLogArgs, runLogArtifacts},
}

// runLogArgs pin one run record per Runner.Run call, with fault spec and
// seed, noise spec and seed, the delay clause, and the critical-path
// summary.
var runLogArgs = []string{"-fig", "S2", "-scale", "tiny", "-app", "em3d", "-noiseseeds", "2",
	"-faults", faultSpec, "-seed", "3", "-critpath", "-runlog", "OUT/runlog.jsonl"}

func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every tiny-scale figure")
	}
	for _, r := range goldenRuns {
		t.Run(r.name, func(t *testing.T) {
			checkGoldenRun(t, r.name, r.args, r.collect)
		})
	}
}

// TestRunLogGoldenSerial reruns the run-log golden on one worker: the
// records' deterministic fields do not depend on worker order.
func TestRunLogGoldenSerial(t *testing.T) {
	checkGoldenRun(t, "s2_em3d_runlog", append([]string{"-j", "1"}, runLogArgs...), runLogArtifacts)
}

// checkGoldenRun runs paperbench with args and compares its artifacts
// with testdata/golden/<name>/.
func checkGoldenRun(t *testing.T, name string, args []string,
	collect func(t *testing.T, stdout, stderr []byte, out string) map[string][]byte) {
	out := t.TempDir()
	args = append([]string(nil), args...)
	for i, a := range args {
		if rest, ok := strings.CutPrefix(a, "OUT"); ok {
			args[i] = out + rest
		}
		if a == "CACHE" {
			args[i] = cacheDir
		}
	}
	code, stdout, stderr := paperbench(args...)
	if code != 0 {
		t.Fatalf("paperbench %s: exit status %d\n%s", strings.Join(args, " "), code, stderr)
	}
	checkGolden(t, filepath.Join("testdata", "golden", name), collect(t, stdout, stderr, out))
}

// TestList pins the -list text: every row of the artifact table, in
// table order.
func TestList(t *testing.T) {
	checkGoldenRun(t, "list", []string{"-list"}, figureArtifacts)
}

// TestArtifactsAlone generates, one at a time, each row of the artifact
// table that -all includes: alone, a row prints what -all prints for it
// and writes the same CSVs.
func TestArtifactsAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every tiny-scale figure")
	}
	golden := readDir(t, filepath.Join("testdata", "golden", "all_tiny"))
	for _, a := range artifacts {
		if !a.all {
			continue
		}
		t.Run(a.sel, func(t *testing.T) {
			out := t.TempDir()
			code, stdout, stderr := paperbench(append(strings.Fields(a.sel), "-scale", "tiny", "-cache", cacheDir, "-csv", out)...)
			if code != 0 {
				t.Fatalf("exit status %d\n%s", code, stderr)
			}
			if len(stdout) == 0 || !bytes.Contains(golden["stdout.txt"], stdout) {
				t.Errorf("prints what -all does not:\n%s", stdout)
			}
			for name, data := range readDir(t, out) {
				if !bytes.Equal(data, golden[name]) {
					t.Errorf("%s differs from the one -all writes", name)
				}
			}
		})
	}
}

// TestExitStatus pins the exit status of every way a run ends early.
func TestExitStatus(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-list"}, 0},
		{[]string{"-h"}, 0},
		{[]string{"-nosuchflag"}, 2},
		{nil, 2},
		{[]string{"-fig", "11"}, 2},
		{[]string{"-table", "3"}, 2},
		{[]string{"-fig", "4", "-noiseseeds", "0"}, 1},
		{[]string{"-fig", "4", "-faults", "bogus"}, 1},
		{[]string{"-fig", "4", "-nodes", "1000"}, 1},
		{[]string{"-fig", "4", "-nodes", "3", "-scale", "tiny"}, 1}, // before any run
		{[]string{"-fig", "3", "-nodes", "1"}, 1},                   // nothing to communicate
		{[]string{"-fig", "10", "-prune"}, 1},
		{[]string{"-fig", "6", "-runlog", filepath.Join(file, "runlog")}, 1},
		{[]string{"-fig", "3", "-csv", file}, 1}, // the figure fails to write its CSV
	} {
		if code, _, stderr := paperbench(c.args...); code != c.want {
			t.Errorf("paperbench %s: exit status %d, want %d\n%s", strings.Join(c.args, " "), code, c.want, stderr)
		}
	}
}

// TestPredictErrExceeded: a -predicterr bound below the model's worst
// validated error fails the run and says so. It runs the command itself,
// to check the exit status main returns to the shell.
func TestPredictErrExceeded(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-fig", "4", "-scale", "tiny", "-app", "em3d", "-predict", "-predicterr", "1")
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), "EXCEEDS the -predicterr bound") {
		t.Errorf("-predicterr 1: %v, want exit status 1 and an EXCEEDS line; output:\n%s", err, out)
	}
}

func TestUnknownScaleRejected(t *testing.T) {
	code, stdout, stderr := paperbench("-fig", "4", "-scale", "tyni")
	if code != 1 || len(stdout) > 0 || !strings.Contains(string(stderr), `unknown scale "tyni"`) {
		t.Errorf("-scale tyni: exit status %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestUnknownAppRejected: an unknown -app fails before any simulation,
// naming the applications there are.
func TestUnknownAppRejected(t *testing.T) {
	code, stdout, stderr := paperbench("-all", "-app", "nonesuch", "-scale", "tiny")
	if code != 1 || len(stdout) > 0 || !strings.Contains(string(stderr), `unknown application "nonesuch" (want one of [em3d unstruc iccg moldyn])`) {
		t.Errorf("-app nonesuch: exit status %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
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

// runLogArtifacts is the run log with its host fields (memo, wall_ms)
// dropped and its lines sorted, since runs finish in worker order.
func runLogArtifacts(t *testing.T, _, _ []byte, out string) map[string][]byte {
	data, err := os.ReadFile(filepath.Join(out, "runlog.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rec core.RunRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("run log is not valid JSONL: %v", err)
		}
		rec.Memo, rec.WallMS = "", 0
		line, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line)+"\n")
	}
	sort.Strings(lines)
	return map[string][]byte{"runlog.jsonl": []byte(strings.Join(lines, ""))}
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
