// Command alewife-sim runs one application under one communication
// mechanism on the simulated Alewife-class machine and prints the
// measurements: runtime, the paper's four-way time breakdown, the
// four-way communication-volume breakdown, and protocol event counts;
// -trace N adds the run's last N protocol and message events. It exits
// 1 for a bad flag value or a failed run and 2 for an unknown flag.
//
// Examples:
//
//	alewife-sim -app em3d -mech sm
//	alewife-sim -app iccg -mech mp-poll -scale default
//	alewife-sim -app em3d -mech sm -cross 14        # Figure 8 point
//	alewife-sim -app em3d -mech sm -clock 14        # Figure 9 point
//	alewife-sim -app em3d -mech sm -ideal-lat 100   # Figure 10 point
package main
