package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestSpanBufferWraps(t *testing.T) {
	b := obs.NewRing[obs.Span](3)
	for i := 0; i < 5; i++ {
		b.Add(obs.Span{Thread: "t", Start: sim.Time(i), End: sim.Time(i + 1)})
	}
	if b.Total() != 5 {
		t.Errorf("total = %d, want 5", b.Total())
	}
	spans := b.Items()
	if len(spans) != 3 {
		t.Fatalf("retained %d, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Start != sim.Time(2+i) {
			t.Errorf("retained wrong window: %v", spans)
			break
		}
	}
}

func TestSpanBufferZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing[Span](0) did not panic")
		}
	}()
	obs.NewRing[obs.Span](0)
}

// timelineInput builds a fixed span/event set exercising every emission
// path: run spans, blocked spans with and without args, and protocol
// instants.
func timelineInput() ([]obs.Span, []obs.Event) {
	spans := []obs.Span{
		{Thread: "proc0", Start: 0, End: 50000},
		{Thread: "proc1", Start: 0, End: 100000, Blocked: true, Reason: "miss-fill", Arg: 42},
		{Thread: "proc0", Start: 50000, End: 150000, Blocked: true, Reason: "await-message"},
	}
	events := []obs.Event{
		{At: 50000, Node: 1, Kind: obs.KMsgSend, A: 0, B: 64},
		{At: 150000, Node: 0, Kind: obs.KMsgRecv, A: 1},
	}
	return spans, events
}

func TestWriteTimelineIsValidTraceEventJSON(t *testing.T) {
	clk := sim.NewClock(20) // 50000 ps per cycle
	spans, events := timelineInput()
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, clk, spans, events, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, slices, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
		case "i":
			instants++
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	// 2 process_name + 2 thread_name records, one slice per span, one
	// instant per trace event.
	if meta != 4 || slices != 3 || instants != 2 {
		t.Errorf("event counts (meta=%d, slices=%d, instants=%d), want (4, 3, 2)", meta, slices, instants)
	}
	// Timestamps are cycles: the second span starts at cycle 0 and lasts
	// 100000 ps / 50000 ps-per-cycle = 2 cycles.
	for _, e := range doc.TraceEvents {
		if e.Name == "miss-fill" && (e.Ts != 0 || e.Dur != 2) {
			t.Errorf("miss-fill slice ts=%d dur=%d, want 0/2", e.Ts, e.Dur)
		}
	}
	if !strings.Contains(buf.String(), `"args":{"arg":42}`) {
		t.Error("blocked span arg missing from timeline")
	}
}

func TestWriteTimelineByteIdentical(t *testing.T) {
	clk := sim.NewClock(20)
	spans, events := timelineInput()
	var a, b bytes.Buffer
	if err := obs.WriteTimeline(&a, clk, spans, events, nil); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTimeline(&b, clk, spans, events, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same input differ")
	}
}
