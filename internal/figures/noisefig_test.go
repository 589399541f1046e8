package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
)

func TestDefaultNoiseSeeds(t *testing.T) {
	got := DefaultNoiseSeeds(3)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("DefaultNoiseSeeds(3) = %v, want [1 2 3]", got)
	}
	if s := DefaultNoiseSeeds(0); len(s) != 0 {
		t.Errorf("DefaultNoiseSeeds(0) = %v, want empty", s)
	}
}

// TestDefaultNoiseSpecParses pins the shipped default: it must parse,
// be pure noise (usable in Config.NoiseSpec), and round-trip so cached
// results stay addressable.
func TestDefaultNoiseSpecParses(t *testing.T) {
	c, err := fault.Parse(DefaultNoiseSpec)
	if err != nil {
		t.Fatalf("DefaultNoiseSpec does not parse: %v", err)
	}
	if !c.NoiseEnabled() || c.FaultsEnabled() {
		t.Errorf("DefaultNoiseSpec NoiseEnabled=%v FaultsEnabled=%v, want true/false",
			c.NoiseEnabled(), c.FaultsEnabled())
	}
}

// TestFigS2EndToEnd runs the noise experiment small (two seeds at tiny
// scale) and checks the report and CSV shapes: every mechanism appears
// in both panels, and the CSV long form carries seeds, summaries, and
// the hop profile.
func TestFigS2EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	dists, props, err := FigS2(&buf, testRunner, core.EM3D, core.ScaleTiny, machine.DefaultConfig(),
		"hostnoise:node=*,dist=exp,mean=2us", DefaultNoiseSeeds(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != len(apps.Mechanisms) || len(props) != len(apps.Mechanisms) {
		t.Fatalf("got %d dists / %d props, want %d each", len(dists), len(props), len(apps.Mechanisms))
	}
	out := buf.String()
	for _, want := range []string{
		"Figure S2 (em3d)",
		"runtime distribution over 2 noise seeds",
		"single-delay propagation from node 0",
		"p99", "absorbed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FigS2 output missing %q", want)
		}
	}
	var csv bytes.Buffer
	if err := WriteNoiseCSV(&csv, dists, props); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "section,mechanism,key,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
	// Per mechanism: 2 seed rows + 6 summary rows + 4 propagation scalars
	// + 11 hop rows (8x4 mesh from node 0).
	want := 1 + len(apps.Mechanisms)*(2+6+4+11)
	if len(lines) != want {
		t.Errorf("CSV has %d lines, want %d", len(lines), want)
	}
	for _, sub := range []string{"seeds,", "summary,", "propagation,", "shift_hops_10"} {
		if !strings.Contains(csv.String(), sub) {
			t.Errorf("CSV missing %q rows", sub)
		}
	}
}
