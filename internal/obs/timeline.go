package obs

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/sim"
)

// WriteTimeline writes the run's thread-state spans and protocol trace
// events as Chrome trace-event JSON, loadable by Perfetto
// (https://ui.perfetto.dev) and chrome://tracing.
//
// Layout: process 0 ("threads") has one track per simulated thread with
// a complete ("X") slice per pause interval — "run" slices are charged
// execution time (self-armed sleeps), named slices are blocked waits
// labelled by their wait reason. Process 1 ("protocol") has one track
// per node carrying the protocol events (miss-start/miss-end/inval/
// msg-send/...) as instant events with their operands in args. Process 2
// ("critpath") has one track per destination node carrying recorded
// causal edges (msg/miss/txn/barrier) as complete slices spanning
// [Start, End), with the latency/bandwidth decomposition in args.
//
// Timestamps are emitted in processor cycles via clk (the JSON "ts"
// field, nominally microseconds — read 1 us as 1 cycle). Output is
// byte-identical for identical inputs: integers only, no floats, no map
// iteration.
func WriteTimeline(w io.Writer, clk sim.Clock, spans []Span, events []Event, edges []CritEdge) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}

	emit(`{"name":"process_name","ph":"M","pid":0,"args":{"name":"threads"}}`)
	if len(events) > 0 {
		emit(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"protocol"}}`)
	}
	if len(edges) > 0 {
		emit(`{"name":"process_name","ph":"M","pid":2,"args":{"name":"critpath"}}`)
	}

	// Assign thread track ids in order of first appearance, which is
	// deterministic because spans are recorded in simulation order.
	tids := make(map[string]int)
	var order []string
	for _, s := range spans {
		if _, ok := tids[s.Thread]; !ok {
			tids[s.Thread] = len(order)
			order = append(order, s.Thread)
		}
	}
	for tid, name := range order {
		emit(`{"name":"thread_name","ph":"M","pid":0,"tid":` + strconv.Itoa(tid) +
			`,"args":{"name":` + strconv.Quote(name) + `}}`)
	}

	for _, s := range spans {
		name := "run"
		if s.Blocked {
			name = "blocked"
			if s.Reason != "" {
				name = s.Reason
			}
		}
		ts := clk.ToCycles(s.Start)
		dur := clk.ToCycles(s.End) - ts
		line := `{"name":` + strconv.Quote(name) +
			`,"ph":"X","pid":0,"tid":` + strconv.Itoa(tids[s.Thread]) +
			`,"ts":` + strconv.FormatInt(ts, 10) +
			`,"dur":` + strconv.FormatInt(dur, 10)
		if s.Blocked && s.Arg != 0 {
			line += `,"args":{"arg":` + strconv.FormatInt(s.Arg, 10) + `}`
		}
		emit(line + "}")
	}

	for _, e := range events {
		emit(`{"name":` + strconv.Quote(e.Kind.String()) +
			`,"ph":"i","s":"t","pid":1,"tid":` + strconv.Itoa(e.Node) +
			`,"ts":` + strconv.FormatInt(clk.ToCycles(e.At), 10) +
			`,"args":{"a":` + strconv.FormatInt(e.A, 10) +
			`,"b":` + strconv.FormatInt(e.B, 10) + `}}`)
	}

	for _, e := range edges {
		ts := clk.ToCycles(e.Start)
		dur := clk.ToCycles(e.End) - ts
		emit(`{"name":` + strconv.Quote(e.Kind.String()) +
			`,"ph":"X","pid":2,"tid":` + strconv.Itoa(e.Dst) +
			`,"ts":` + strconv.FormatInt(ts, 10) +
			`,"dur":` + strconv.FormatInt(dur, 10) +
			`,"args":{"src":` + strconv.Itoa(e.Src) +
			`,"lat":` + strconv.FormatInt(clk.ToCycles(e.Lat), 10) +
			`,"bw":` + strconv.FormatInt(clk.ToCycles(e.BW), 10) + `}}`)
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}
