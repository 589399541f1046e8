package figures

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/machines"
)

// na renders a machines table entry, or N/A where the paper has none.
func na(v float64, format string) string {
	if v == machines.NA {
		return "N/A"
	}
	return fmt.Sprintf(format, v)
}

// PrintTable1 prints the paper's Table 1: parameter estimates for
// fourteen 32-processor multiprocessors.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Parameter estimates for various 32-processor multiprocessors.")
	fmt.Fprintln(w, "Network Latency is one-way transit of a 24-byte packet; latencies in processor cycles.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Machine\tMHz\tTopology\tBisection MB/s\tbytes/cycle\tNet Lat\tRemote Miss\tLocal Miss\tNote")
	for _, m := range machines.Table1() {
		fmt.Fprintf(tw, "%s\t%.1f\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			m.Name, m.MHz, m.Topology,
			na(m.BisectionMBs, "%.0f"), na(m.BytesPerCycle, "%.1f"),
			na(m.NetLatency, "%.0f"), na(m.RemoteMiss, "%.0f"),
			na(m.LocalMiss, "%.0f"), m.Note)
	}
	tw.Flush()
}

// PrintTable2 prints the paper's Table 2: Table 1's network parameters
// in units of local cache-miss latency.
func PrintTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Multiprocessor parameter estimates recalculated in terms of local cache-miss latency.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Machine\tBsctn BW (bytes/lcl-miss)\tNet Lat (lcl-miss times)")
	for _, m := range machines.Table1() {
		bis := m.BisPerLocalMiss()
		if m.PaperBisPerMiss != machines.NA {
			// The paper's printed value differs from its own formula
			// for this row; show both.
			fmt.Fprintf(tw, "%s\t%s (paper prints %.0f)\t%s\n", m.Name,
				na(bis, "%.0f"), m.PaperBisPerMiss, na(m.NetLatPerLocalMiss(), "%.1f"))
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", m.Name, na(bis, "%.0f"), na(m.NetLatPerLocalMiss(), "%.1f"))
	}
	tw.Flush()
}
