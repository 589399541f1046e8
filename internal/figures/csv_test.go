package figures

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

func TestWriteSweepCSV(t *testing.T) {
	pts := []core.SweepPoint{
		{X: 18, Results: map[apps.Mechanism]core.RunResult{
			apps.SM:     {Result: machine.Result{Cycles: 100}},
			apps.MPPoll: {Result: machine.Result{Cycles: 50}},
		}},
		{X: 2, Results: map[apps.Mechanism]core.RunResult{
			apps.SM:     {Result: machine.Result{Cycles: 150}},
			apps.MPPoll: {Result: machine.Result{Cycles: 60}},
		}},
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, "bytes_per_cycle", []apps.Mechanism{apps.SM, apps.MPPoll}, pts); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("got %d rows, want 3", len(records))
	}
	if records[0][0] != "bytes_per_cycle" || records[0][1] != "shared-memory_cycles" {
		t.Errorf("header = %v", records[0])
	}
	if records[1][1] != "100" || records[2][2] != "60" {
		t.Errorf("values wrong: %v", records[1:])
	}
}

// TestSweepPrintersMarkMissingMechanism: a mechanism a point did not
// measure (a crashed run) prints "-" and writes an empty CSV cell, not
// a 0-cycle runtime.
func TestSweepPrintersMarkMissingMechanism(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	pts := []core.SweepPoint{
		{X: 18, Results: map[apps.Mechanism]core.RunResult{
			apps.SM:     {Result: machine.Result{Cycles: 100}},
			apps.MPPoll: {Result: machine.Result{Cycles: 50}},
		}},
		{X: 2, Results: map[apps.Mechanism]core.RunResult{
			apps.MPPoll: {Result: machine.Result{Cycles: 60}},
		}},
	}
	var buf bytes.Buffer
	printSweep(&buf, "title", "x", mechs, pts)
	lines := strings.Split(buf.String(), "\n")
	if got := strings.Fields(lines[2]); strings.Join(got, " ") != "18.0 100 50" {
		t.Errorf("full row = %q", lines[2])
	}
	if got := strings.Fields(lines[3]); strings.Join(got, " ") != "2.0 - 60" {
		t.Errorf("row missing SM = %q, want a dash in the SM column", lines[3])
	}
	buf.Reset()
	if err := WriteSweepCSV(&buf, "x", mechs, pts); err != nil {
		t.Fatal(err)
	}
	want := "x,shared-memory_cycles,mp-poll_cycles\n18.00,100,50\n2.00,,60\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteFig4CSVRoundTrips(t *testing.T) {
	rows, err := Fig4Data(testRunner, core.ScaleTiny, machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig4CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1+20 {
		t.Fatalf("got %d rows, want 21", len(records))
	}
	if len(records[0]) != 16 {
		t.Errorf("header has %d columns, want 16", len(records[0]))
	}
	// Column consistency: every data row parses numerically.
	for _, rec := range records[1:] {
		for _, col := range rec[2:] {
			if strings.TrimLeft(col, "0123456789") != "" {
				t.Fatalf("non-numeric cell %q in %v", col, rec)
			}
		}
	}
}

// TestWriteMissPenaltiesCSV writes Figure 3 on the 32-node machine,
// where every row is measured, and on 8 nodes, where the LimitLESS
// rows have too few nodes for their sharers and print "-" in the table
// and an empty CSV cell.
func TestWriteMissPenaltiesCSV(t *testing.T) {
	small, err := machine.ConfigForNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg   machine.Config
		empty []string // rows with no measured value
	}{
		{machine.DefaultConfig(), nil},
		{small, []string{"limitless_read", "limitless_write"}},
	} {
		var buf, table bytes.Buffer
		mp := PrintFig3(&table, c.cfg)
		if err := WriteMissPenaltiesCSV(&buf, mp); err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != 12 {
			t.Errorf("%d nodes: got %d rows, want 12", c.cfg.Nodes(), len(records))
		}
		var empty []string
		for _, rec := range records[1:] {
			if rec[1] == "" {
				empty = append(empty, rec[0])
			}
		}
		if !reflect.DeepEqual(empty, c.empty) {
			t.Errorf("%d nodes: rows without a value %v, want %v", c.cfg.Nodes(), empty, c.empty)
		}
		if got, want := strings.Count(table.String(), "  -  "), len(c.empty); got != want {
			t.Errorf("%d nodes: %d unmeasured rows in the table, want %d:\n%s", c.cfg.Nodes(), got, want, table.String())
		}
	}
}
