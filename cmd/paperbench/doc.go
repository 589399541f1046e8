// Command paperbench regenerates the paper's tables and figures on the
// simulated machine. Select artifacts with -fig / -table / -model, or
// run the whole evaluation with -all.
//
//	paperbench -fig 4              # Figure 4 runtime breakdowns
//	paperbench -fig 8 -app em3d    # Figure 8 bisection sweep for EM3D
//	paperbench -fig S1 -scale tiny # node-scaling experiment, 32-512 nodes
//	paperbench -fig S2 -app em3d   # noise-sensitivity + delay-propagation experiment
//	paperbench -all -scale sweep   # everything, at sweep scale
//	paperbench -list               # the artifact table
//
// Every artifact is one row of one table: its selector, its -list title,
// whether -all includes it, and the function that prints it and writes
// its CSVs. -list prints the table; a run generates the rows it selects,
// in table order, on one core.Runner of its own. A region figure (1 or
// 2) runs its sweep figure (8 or 10) first if no earlier row did.
package main
