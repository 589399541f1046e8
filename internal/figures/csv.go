package figures

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/stats"
)

// WriteSweepCSV emits a sweep as CSV: one row per X with runtime columns
// per mechanism — the machine-readable form of Figures 7-10. A
// mechanism a point did not measure (a crashed run) emits an empty cell
// rather than a zero, as WriteScalingCSV does.
func WriteSweepCSV(w io.Writer, xlabel string, mechs []apps.Mechanism, pts []core.SweepPoint) error {
	header := []string{xlabel}
	for _, m := range mechs {
		header = append(header, m.String()+"_cycles")
	}
	records := [][]string{header}
	for _, pt := range pts {
		row := []string{strconv.FormatFloat(pt.X, 'f', 2, 64)}
		for _, m := range mechs {
			if r, ok := pt.Results[m]; ok {
				row = append(row, strconv.FormatInt(r.Cycles, 10))
			} else {
				row = append(row, "")
			}
		}
		records = append(records, row)
	}
	return csv.NewWriter(w).WriteAll(records)
}

// WriteScalingCSV emits the Figure S1 node-scaling experiment as CSV:
// one row per (mode, node count) with cycles and per-mechanism speedup
// columns. Node counts a workload could not be partitioned for (e.g. a
// fixed tiny em3d graph on 512 nodes) emit empty cells rather than
// zeros, so downstream plots drop the point instead of plotting it.
func WriteScalingCSV(w io.Writer, mechs []apps.Mechanism, fixed, scaled []core.SweepPoint) error {
	header := []string{"mode", "nodes"}
	for _, m := range mechs {
		header = append(header, m.String()+"_cycles")
	}
	for _, m := range mechs {
		header = append(header, m.String()+"_speedup")
	}
	records := [][]string{header}
	for _, mode := range []struct {
		name string
		pts  []core.SweepPoint
	}{{"fixed", fixed}, {"scaled", scaled}} {
		for _, pt := range mode.pts {
			row := []string{mode.name, strconv.FormatFloat(pt.X, 'f', 0, 64)}
			for _, m := range mechs {
				if r, ok := pt.Results[m]; ok {
					row = append(row, strconv.FormatInt(r.Cycles, 10))
				} else {
					row = append(row, "")
				}
			}
			for _, m := range mechs {
				if s, ok := Speedup(mode.pts, m, pt); ok {
					row = append(row, strconv.FormatFloat(s, 'f', 4, 64))
				} else {
					row = append(row, "")
				}
			}
			records = append(records, row)
		}
	}
	return csv.NewWriter(w).WriteAll(records)
}

// WriteFig4CSV emits the per-app/mechanism breakdown table as CSV.
func WriteFig4CSV(w io.Writer, rows []Fig4Row) error {
	records := [][]string{{
		"app", "mechanism", "cycles",
		"sync_cycles", "msg_overhead_cycles", "mem_ni_wait_cycles", "compute_cycles",
		"volume_total", "volume_invalidates", "volume_requests", "volume_headers", "volume_data",
		"remote_misses", "messages_sent", "interrupts", "polls",
	}}
	for _, r := range rows {
		bd := r.Res.Breakdown
		v := r.Res.Volume
		ev := r.Res.Events
		// Breakdown times are picoseconds; emit as-is (consumers can
		// divide by the clock period) plus the headline cycles.
		records = append(records, []string{
			string(r.App), r.Res.Mech.String(),
			strconv.FormatInt(r.Res.Cycles, 10),
			strconv.FormatInt(int64(bd.T[stats.BucketSync]), 10),
			strconv.FormatInt(int64(bd.T[stats.BucketMsgOverhead]), 10),
			strconv.FormatInt(int64(bd.T[stats.BucketMemWait]), 10),
			strconv.FormatInt(int64(bd.T[stats.BucketCompute]), 10),
			strconv.FormatInt(v.Total(), 10),
			strconv.FormatInt(v.Bytes[stats.VolInvalidates], 10),
			strconv.FormatInt(v.Bytes[stats.VolRequests], 10),
			strconv.FormatInt(v.Bytes[stats.VolHeaders], 10),
			strconv.FormatInt(v.Bytes[stats.VolData], 10),
			strconv.FormatInt(ev.RemoteMisses(), 10),
			strconv.FormatInt(ev.MessagesSent, 10),
			strconv.FormatInt(ev.Interrupts, 10),
			strconv.FormatInt(ev.Polls, 10),
		})
	}
	return csv.NewWriter(w).WriteAll(records)
}

// WriteCritPathCSV emits the critical-path attribution per figure point:
// one row per (app, mechanism) with the critical (last-finishing)
// processor, its total cycles, and the exhaustive five-way cause split
// (the five category columns sum to total_cycles by construction). Rows
// whose run was not profiled (machine.Config.CritPath unset) are
// skipped. net_latency_share is the headline sensitivity number: the
// fraction of the critical path spent on uncongested message flight.
func WriteCritPathCSV(w io.Writer, rows []Fig4Row) error {
	records := [][]string{{
		"app", "mechanism", "crit_node", "total_cycles",
		"compute", "mem_stall", "net_latency", "net_bandwidth", "sync",
		"net_latency_share",
	}}
	for _, r := range rows {
		cp := r.Res.CritPath
		if cp == nil {
			continue
		}
		share := 0.0
		if cp.TotalCycles > 0 {
			share = float64(cp.NetLatency) / float64(cp.TotalCycles)
		}
		records = append(records, []string{
			string(r.App), r.Res.Mech.String(),
			strconv.Itoa(cp.Node),
			strconv.FormatInt(cp.TotalCycles, 10),
			strconv.FormatInt(cp.Compute, 10),
			strconv.FormatInt(cp.MemStall, 10),
			strconv.FormatInt(cp.NetLatency, 10),
			strconv.FormatInt(cp.NetBandwidth, 10),
			strconv.FormatInt(cp.Sync, 10),
			strconv.FormatFloat(share, 'f', 4, 64),
		})
	}
	return csv.NewWriter(w).WriteAll(records)
}

// WriteMissPenaltiesCSV emits the Figure 3 microbenchmark results; an
// operation the machine has no nodes for leaves its cell empty.
func WriteMissPenaltiesCSV(w io.Writer, mp core.MissPenalties) error {
	records := [][]string{{"operation", "measured_cycles", "paper_cycles"}}
	for _, r := range fig3Rows(mp) {
		records = append(records, []string{r.key, measuredText(r.measured, ""), r.paperCSV})
	}
	return csv.NewWriter(w).WriteAll(records)
}
