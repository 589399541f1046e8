package machines

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestConfigForMatchesHeadlineParams(t *testing.T) {
	for _, m := range EmulatableMachines() {
		cfg, note, err := ConfigFor(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if cfg.ClockMHz != m.MHz {
			t.Errorf("%s: clock %v, want %v", m.Name, cfg.ClockMHz, m.MHz)
		}
		// Bisection match.
		bis := cfg.Mesh().BisectionBytesPerCycle(sim.NewClock(m.MHz))
		if math.Abs(bis-m.BytesPerCycle)/m.BytesPerCycle > 0.05 {
			t.Errorf("%s: bisection %.1f bytes/cycle, want %.1f", m.Name, bis, m.BytesPerCycle)
		}
		// Latency match (unless clamped): the hop latency is fitted over
		// the topology's own average distance, so only the picosecond
		// rounding of HopLatency and PsPerByte remains.
		if note.Comment == "" {
			lat := core.NetLatencyCycles(cfg)
			if math.Abs(lat-m.NetLatency)/m.NetLatency > 0.001 {
				t.Errorf("%s: latency %.3f cycles, want %.0f", m.Name, lat, m.NetLatency)
			}
		}
		if got := m.RemoteMiss != NA; note.SharedMemory != got {
			t.Errorf("%s: SharedMemory note %v", m.Name, note.SharedMemory)
		}
	}
}

func TestConfigForCrayIsTorus(t *testing.T) {
	for _, name := range []string{"Cray T3D", "Cray T3E"} {
		m, _ := ByName(name)
		cfg, note, err := ConfigFor(m)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Torus || note.Topology != "8x4 torus" {
			t.Errorf("%s not emulated as a torus", name)
		}
	}
}

func TestConfigForRejectsNetworklessMachines(t *testing.T) {
	m, _ := ByName("Wisconsin T0")
	if _, _, err := ConfigFor(m); err == nil {
		t.Error("T0 (no network) should not be emulatable")
	}
	if len(EmulatableMachines()) != 11 {
		t.Errorf("emulatable machines = %d, want 11 (14 minus T0, T1, KSR-2)",
			len(EmulatableMachines()))
	}
}

func TestEmulatedMachinesRunAndValidate(t *testing.T) {
	// Run EM3D on a few representative emulated machines end to end,
	// with numerical validation.
	for _, name := range []string{"Stanford DASH", "Cray T3D", "Intel Paragon"} {
		m, _ := ByName(name)
		cfg, note, err := ConfigFor(m)
		if err != nil {
			t.Fatal(err)
		}
		mech := apps.MPPoll
		if note.SharedMemory {
			mech = apps.SM
		}
		if _, err := core.Run(core.RunConfig{App: core.EM3D, Mech: mech,
			Scale: core.ScaleTiny, Machine: cfg}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestEmulatedLatencyOrderingMatchesConclusion(t *testing.T) {
	// The paper's conclusion: network latency is the severe problem for
	// shared memory, worsening on modern machines. Emulated FLASH
	// (62-cycle latency) should show a worse SM/MP ratio than emulated
	// Alewife (15 cycles).
	ratio := func(name string) float64 {
		m, _ := ByName(name)
		cfg, _, err := ConfigFor(m)
		if err != nil {
			t.Fatal(err)
		}
		sm := core.MustRun(core.RunConfig{App: core.EM3D, Mech: apps.SM,
			Scale: core.ScaleTiny, Machine: cfg, SkipValidate: true})
		mp := core.MustRun(core.RunConfig{App: core.EM3D, Mech: apps.MPPoll,
			Scale: core.ScaleTiny, Machine: cfg, SkipValidate: true})
		return float64(sm.Cycles) / float64(mp.Cycles)
	}
	alewife := ratio("MIT Alewife")
	flash := ratio("Stanford FLASH")
	if flash <= alewife {
		t.Errorf("FLASH SM/MP %.2f <= Alewife %.2f; latency should hurt SM more", flash, alewife)
	}
}
