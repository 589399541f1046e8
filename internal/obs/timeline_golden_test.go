package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestWriteTimelineGolden pins the exporter's exact byte stream — field
// order, integer-only timestamps, one line per record — against a golden
// file. External consumers (Perfetto, the CI snapshot diff) depend on
// this schema being stable; regenerate deliberately with
// `go test ./internal/obs -run Golden -update` and review the diff.
func TestWriteTimelineGolden(t *testing.T) {
	clk := sim.NewClock(20) // 50000 ps per cycle
	spans, events := timelineInput()
	edges := []obs.CritEdge{
		{Kind: "msg", Src: 1, Dst: 0, Start: 50000, End: 150000, Lat: 50000, BW: 50000},
		{Kind: "barrier", Src: 0, Dst: 0, Start: 150000, End: 200000},
	}
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, clk, spans, events, edges); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "timeline_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline output drifted from the golden schema (-update to accept):\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}

	// Schema assertions on the golden itself, so drift in the checked-in
	// file is caught even if output and golden drift together.
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	// spans (3) + instants (2) + edges (2) + process/thread metadata (3+2).
	if len(doc.TraceEvents) != 12 {
		t.Errorf("golden holds %d records, want 12", len(doc.TraceEvents))
	}
	text := string(want)
	for _, needle := range []string{
		`"name":"critpath"`,               // critical-path process lane
		`"args":{"src":1,"lat":1,"bw":1}`, // edge decomposition in cycles
		`"ph":"i"`,                        // protocol instants survive
		`"ph":"X"`,                        // span/edge slices survive
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("golden lost %s", needle)
		}
	}
	if strings.Contains(text, `"ts":0.`) || strings.Contains(text, `.5,`) {
		t.Error("golden contains fractional timestamps; ts/dur must be integers")
	}
}
