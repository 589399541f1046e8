package figures

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// CatalogEntry describes one artifact paperbench can regenerate: the
// -fig/-table selector the user passes and what comes out.
type CatalogEntry struct {
	Flag  string // the paperbench invocation that produces it
	Title string // one-line description
}

// catalog lists every figure and table in selector order. paperbench
// -list prints it. TestCatalogListsEveryFigure pins the selectors to a
// list in the test itself; nothing checks them against the dispatch in
// cmd/paperbench/main.go, so keep the two in sync by hand.
func catalog() []CatalogEntry {
	return []CatalogEntry{
		{"-fig 1", "bandwidth region classification (derived from the Figure 8 sweep)"},
		{"-fig 2", "latency region classification (derived from the Figure 10 sweep)"},
		{"-fig 3", "cost table: shared-memory miss penalties, measured vs paper"},
		{"-fig 4", "runtime breakdowns per app and mechanism"},
		{"-fig 5", "communication volume breakdowns per app and mechanism"},
		{"-fig 6", "cross-traffic topology description (I/O nodes on the mesh edges)"},
		{"-fig 7", "runtime vs cross-traffic message length"},
		{"-fig 8", "runtime vs bisection bandwidth"},
		{"-fig 9", "runtime vs network clock (latency+bandwidth scaling)"},
		{"-fig 10", "runtime vs one-way network latency"},
		{"-fig S1", "mechanism scaling with machine size, 32-512 nodes (beyond the paper)"},
		{"-fig S2", "mechanism sensitivity to stochastic noise and single-delay propagation (beyond the paper)"},
		{"-table 1", "parameter estimates for fourteen 32-processor machines"},
		{"-table 2", "the same parameters in units of local cache-miss latency"},
		{"-model", "analytical model vs simulator comparison, plus LogP parameters"},
		{"-predict", "dependency-graph sweep predictions for figs 4/8/9/10 from one instrumented run per mechanism (-prune simulates only low-confidence and near-crossover points)"},
	}
}

// PrintCatalog renders the artifact catalog (paperbench -list).
func PrintCatalog(w io.Writer) {
	fmt.Fprintln(w, "paperbench artifacts:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, e := range catalog() {
		fmt.Fprintf(tw, "  %s\t%s\n", e.Flag, e.Title)
	}
	tw.Flush()
}
