package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Telemetry is the runner's host-side observability sink: a JSONL run
// log, a throttled progress heartbeat, per-run Perfetto timelines, and
// text trace dumps. All fields are optional;
// leave one nil/empty to disable that sink. Attach with
// Runner.SetTelemetry before starting sweeps.
//
// Host/sim split: this file is deliberately outside the simulator-facing
// packages — it observes the host wall clock (run durations, heartbeat
// throttling), whose time import simlint's closedscope check bans
// inside the simulation. Nothing here feeds back into simulated state; the
// simulation-side data it serializes (timelines, trace dumps, the run
// record's configuration and result) is a deterministic function of
// the RunConfig, so those bytes are identical across runs. Only the run
// log's host fields (memo, wall_ms) are not.
type Telemetry struct {
	// RunLog receives one RunRecord per Runner.Run call as a JSON line
	// (cache hits included, marked memo=hit).
	RunLog io.Writer
	// Heartbeat receives throttled one-line progress reports.
	Heartbeat io.Writer
	// TimelineDir, when nonempty, receives a <run>.json Perfetto
	// timeline for every executed run that recorded spans, events or
	// causal edges (see machine.Config.SpanCap/TraceCap/CritPath).
	TimelineDir string
	// TraceOut receives a text dump of every executed run's protocol
	// events (see machine.Config.TraceCap), delimited by header lines.
	TraceOut io.Writer

	mu       sync.Mutex
	enc      *json.Encoder
	done     int
	hits     int
	fails    int
	lastBeat time.Time
}

// RunRecord is the one serialized form of a run: the run log writes one
// per Runner.Run call, and a disk-cache entry carries one. It names the
// configuration, says how the run ended, and carries the measurements
// whole, so a field added to machine.Result reaches both without code
// here. Seeds are read from the canonical configuration, so an inert
// seed (no spec to draw for) is 0 and omitted.
type RunRecord struct {
	Fingerprint string `json:"fingerprint"` // FingerprintLabel of the configuration
	App         string `json:"app"`
	Mech        string `json:"mech"`
	Scale       string `json:"scale"`
	FaultSpec   string `json:"fault_spec,omitempty"` // canonical fault injection spec
	FaultSeed   uint64 `json:"fault_seed,omitempty"`
	NoiseSpec   string `json:"noise_spec,omitempty"` // canonical stochastic noise spec
	NoiseSeed   uint64 `json:"noise_seed,omitempty"`

	// Outcome is "ok", "stall" (a watchdog diagnostic), "crash" (any
	// other failed run), or "invalid" (no workload could be built for
	// the configuration, so nothing was simulated).
	Outcome string          `json:"outcome"`
	Error   string          `json:"error,omitempty"`  // failure detail
	Result  *machine.Result `json:"result,omitempty"` // nil unless outcome is "ok"

	// Host fields, set only in the run log.
	Memo   string  `json:"memo,omitempty"`    // "hit" or "miss"
	WallMS float64 `json:"wall_ms,omitempty"` // host time spent (≈0 for hits)
}

// newRecord builds rc's record from one run's outcome: res when err is
// nil, the failure otherwise.
func newRecord(rc RunConfig, res RunResult, err error) RunRecord {
	key := fingerprint(rc)
	rec := RunRecord{
		Fingerprint: FingerprintLabel(key),
		App:         string(key.App),
		Mech:        key.Mech.String(),
		Scale:       key.Scale.String(),
		FaultSpec:   key.Machine.FaultSpec,
		FaultSeed:   key.Machine.FaultSeed,
		NoiseSpec:   key.Machine.NoiseSpec,
		NoiseSeed:   key.Machine.NoiseSeed,
		Outcome:     "ok",
	}
	if err != nil {
		rec.Outcome, rec.Error = "crash", err.Error()
		if re, ok := err.(*RunError); ok && re.Stall != nil {
			rec.Outcome = "stall"
		}
		if _, ok := err.(*WorkloadError); ok {
			rec.Outcome = "invalid"
		}
		return rec
	}
	rec.Result = &res.Result
	return rec
}

// FingerprintLabel returns a stable 16-hex-digit hash of rc's canonical
// fingerprint: the same configuration always maps to the same label, and
// it names the run's telemetry files and log records.
func FingerprintLabel(rc RunConfig) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", fingerprint(rc))
	return fmt.Sprintf("%016x", h.Sum64())
}

// runName builds the telemetry file stem for one run.
func runName(rc RunConfig) string {
	return fmt.Sprintf("%s_%s_%s", rc.App, rc.Mech, FingerprintLabel(rc))
}

// observe records one completed Runner.Run call. memo marks cache hits.
func (t *Telemetry) observe(rc RunConfig, res RunResult, err error, wall time.Duration, memo bool) {
	if t == nil {
		return
	}
	if !memo && err == nil {
		t.writeArtifacts(rc, res)
	}
	rec := newRecord(rc, res, err)
	rec.Memo = "miss"
	if memo {
		rec.Memo = "hit"
	}
	rec.WallMS = float64(wall.Microseconds()) / 1000

	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	if memo {
		t.hits++
	}
	if err != nil {
		t.fails++
	}
	if t.RunLog != nil {
		if t.enc == nil {
			t.enc = json.NewEncoder(t.RunLog)
		}
		t.enc.Encode(&rec) // best-effort: a full disk must not kill the sweep
	}
	if t.Heartbeat != nil {
		// Throttle to ~2 lines/second so huge sweeps stay readable.
		if now := time.Now(); now.Sub(t.lastBeat) >= 500*time.Millisecond {
			t.lastBeat = now
			fmt.Fprintf(t.Heartbeat, "telemetry: %d runs done (%d cache hits, %d failed), last %s/%s %s\n",
				t.done, t.hits, t.fails, rec.App, rec.Mech, rec.Outcome)
		}
	}
}

// writeArtifacts emits the per-run timeline and trace dump for an
// executed (non-memoized) successful run. Single-flight
// execution guarantees each configuration writes its files exactly once;
// the contents are a deterministic function of the RunConfig.
func (t *Telemetry) writeArtifacts(rc RunConfig, res RunResult) {
	clk := sim.NewClock(rc.Machine.ClockMHz)
	name := runName(rc)
	if t.TimelineDir != "" && (res.Spans != nil || res.Trace != nil || res.Crit != nil) {
		var spans []obs.Span
		var events []obs.Event
		var edges []obs.CritEdge
		if res.Spans != nil {
			spans = res.Spans.Items()
		}
		if res.Trace != nil {
			events = res.Trace.Items()
		}
		if res.Crit != nil {
			edges = res.Crit.Edges()
		}
		t.toFile(filepath.Join(t.TimelineDir, name+".json"), func(w io.Writer) error {
			return obs.WriteTimeline(w, clk, spans, events, edges)
		})
	}
	if t.TraceOut != nil && res.Trace != nil {
		t.mu.Lock()
		fmt.Fprintf(t.TraceOut, "== trace %s (%d events, %d retained) ==\n",
			name, res.Trace.Total(), len(res.Trace.Items()))
		obs.DumpEvents(t.TraceOut, clk, res.Trace)
		t.mu.Unlock()
	}
}

// toFile writes one telemetry artifact, reporting failures to stderr
// rather than failing the sweep (telemetry must never break science).
func (t *Telemetry) toFile(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		return
	}
	werr := fn(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %s: %v\n", path, werr)
	}
}
