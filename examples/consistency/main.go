// Consistency: exercise the two memory-system extensions beyond the
// paper's Alewife baseline — write-buffered release consistency (the
// latency-tolerance technique Section 2 discusses but Alewife lacked)
// and a write-through update protocol (an ablation of Section 5.1's
// invalidation-volume argument) — on EM3D shared memory.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/mem"
)

func main() {
	log.SetFlags(0)

	run := func(label string, mutate func(*repro.MachineConfig), lat int64) int64 {
		cfg := repro.DefaultMachine()
		cfg.IdealNetOneWayCycles = lat
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := repro.Run(repro.Config{
			App: repro.EM3D, Mechanism: repro.SM,
			Scale: repro.ScaleSweep, Machine: cfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res.Cycles
	}

	fmt.Println("EM3D / shared memory under memory-system variants")
	fmt.Println("(uniform-latency network; runtimes in processor cycles)")
	fmt.Println()
	fmt.Printf("%-28s %12s %12s %12s\n", "variant", "lat=15", "lat=100", "lat=200")
	for _, v := range []struct {
		label  string
		mutate func(*repro.MachineConfig)
	}{
		{"sequential consistency", nil},
		{"release consistency", func(c *repro.MachineConfig) { c.Mem.Consistency = mem.RC }},
		{"update protocol", func(c *repro.MachineConfig) { c.Mem.Protocol = mem.ProtocolUpdate }},
	} {
		fmt.Printf("%-28s %12d %12d %12d\n", v.label,
			run(v.label, v.mutate, 15), run(v.label, v.mutate, 100), run(v.label, v.mutate, 200))
	}
	fmt.Println()
	fmt.Println("Release consistency shaves the store stalls (reads still block — the")
	fmt.Println("benefit grows with latency but stays modest, echoing Holt et al.).")
	fmt.Println("The update protocol loses on EM3D: every store to a shared line pays a")
	fmt.Println("write-through round trip, the classic update-protocol pathology.")
}
