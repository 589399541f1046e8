package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/predict"
	"repro/internal/stats"
)

// digest condenses one simulation's deterministic outputs. Cycles,
// Events and Volume are pure functions of the model and its inputs, so
// any change to them under an unchanged seed is a change in what the
// simulator computes, not in how fast it computes it.
type digest struct {
	Cycles int64  `json:"cycles"`
	Events string `json:"events"`
	Volume string `json:"volume"`
	// Predicted digests the dependency-graph solve grid of a predict job.
	Predicted string `json:"predicted,omitempty"`
}

// goldenSet maps workload name to job name to its seed-0 digest.
type goldenSet map[string]map[string]digest

//go:embed testdata/golden_seed0.json
var goldenJSON []byte

// loadGolden parses the embedded seed-0 digests.
func loadGolden() (goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: golden digests: %w", err)
	}
	return g, nil
}

// goldenChecked reports whether a workload's seed-0 digests are
// compared with the golden file. s1-512 is checked by Validate and the
// coherence invariants only: it runs under the engine policy the
// simulator picks for 512 nodes, and retiring the tiled engine is
// expected to change its low-order cycle counts.
func goldenChecked(workload string) bool { return workload != "s1-512" }

// hashInts is FNV-64a over the decimal renderings of xs.
func hashInts(xs ...int64) string {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// eventsDigest hashes the event counters field by field. Naming each
// field keeps the digest stable if the struct gains new counters.
func eventsDigest(e stats.Events) string {
	return hashInts(e.LocalMisses, e.RemoteMissesCln, e.RemoteMissesDty, e.LimitLESSTraps,
		e.Invalidations, e.WriteBacks, e.Upgrades, e.MessagesSent, e.MessagesRecv,
		e.Interrupts, e.Polls, e.PollHits, e.BulkTransfers, e.BulkBytes,
		e.PrefetchIssued, e.PrefetchUseful, e.PrefetchUseless, e.LockAcquires,
		e.LockSpins, e.BarrierArrivals, e.NIQueueFullStall, e.XTrafficPackets, e.XTrafficBytes)
}

func volumeDigest(v stats.Volume) string {
	return hashInts(v.Bytes[stats.VolInvalidates], v.Bytes[stats.VolRequests],
		v.Bytes[stats.VolHeaders], v.Bytes[stats.VolData])
}

func predictedDigest(preds []predict.Prediction) string {
	xs := make([]int64, len(preds))
	for i, p := range preds {
		xs[i] = p.Cycles
	}
	return hashInts(xs...)
}
