package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/machine"
)

// TestNoiseExperimentRerunByteIdentical is the Figure S2 determinism
// guarantee: the same noise spec and seed schedule on fresh runners
// (nothing served from cache) reproduce the distribution panel, the
// propagation panel, and the CSV byte-for-byte. Run under -race via
// `make check`, this also certifies the noisy path free of data races.
func TestNoiseExperimentRerunByteIdentical(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	seeds := []uint64{1, 2, 3}
	const spec = "hostnoise:node=*,dist=heavytail,mean=2us;netnoise:node=*,dist=exp,mean=100ns"
	run := func() ([]core.NoiseDistribution, []core.PropagationResult, []byte) {
		t.Helper()
		r := core.NewRunner(0)
		dists, err := r.NoiseSeedSweep(core.EM3D, core.ScaleTiny, mechs, machine.DefaultConfig(), spec, seeds)
		if err != nil {
			t.Fatal(err)
		}
		props, err := r.DelayPropagation(core.EM3D, core.ScaleTiny, mechs, machine.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := figures.WriteNoiseCSV(&buf, dists, props); err != nil {
			t.Fatal(err)
		}
		return dists, props, buf.Bytes()
	}
	d1, p1, csv1 := run()
	d2, p2, csv2 := run()
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(p1, p2) {
		t.Error("re-running the noise experiment on a fresh runner produced different results")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("noise figure data differs between identical runs:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
}

// TestNoiseSeedSweepShape: every mechanism keeps its seeds in input
// order with positive runtimes, and the seeds actually move the result —
// a distribution over identical samples would mean the noise never
// reached the machine.
func TestNoiseSeedSweepShape(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM}
	seeds := []uint64{4, 5, 6}
	dists, err := core.NewRunner(0).NoiseSeedSweep(core.EM3D, core.ScaleTiny, mechs,
		machine.DefaultConfig(), "hostnoise:node=*,dist=exp,mean=2us", seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 1 || !reflect.DeepEqual(dists[0].Seeds, seeds) {
		t.Fatalf("dists = %+v, want one entry with seeds %v", dists, seeds)
	}
	distinct := map[int64]bool{}
	for i, c := range dists[0].Cycles {
		if c <= 0 {
			t.Errorf("seed %d: non-positive runtime %d", seeds[i], c)
		}
		distinct[c] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d seeds produced the same runtime; noise is not reaching the run", len(seeds))
	}
}

// TestDelayPropagationShape: the propagation panel reports every
// mechanism with a sane delay size and a full hop profile covering the
// mesh.
func TestDelayPropagationShape(t *testing.T) {
	mechs := []apps.Mechanism{apps.MPPoll}
	props, err := core.NewRunner(0).DelayPropagation(core.EM3D, core.ScaleTiny, mechs,
		machine.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 {
		t.Fatalf("got %d propagation results, want 1", len(props))
	}
	p := props[0]
	if p.BaseCycles <= 0 || p.DelayCycles < 1000 || p.AtCycles <= 0 {
		t.Errorf("degenerate experiment: %+v", p)
	}
	// The default 8x4 mesh has a farthest node 7+3=10 hops from node 0.
	if len(p.ShiftByHops) != 11 {
		t.Errorf("hop profile has %d entries, want 11", len(p.ShiftByHops))
	}
	if p.RuntimeShift <= 0 {
		t.Errorf("injected delay did not shift completion: %d", p.RuntimeShift)
	}
}

func TestNoiseExperimentErrors(t *testing.T) {
	r := core.NewRunner(0)
	mechs := []apps.Mechanism{apps.SM}
	if _, err := r.NoiseSeedSweep(core.EM3D, core.ScaleTiny, mechs,
		machine.DefaultConfig(), "hostnoise:dist=gaussian,mean=1us", []uint64{1}); err == nil {
		t.Error("bad noise spec accepted")
	}
	// A fault clause in the noise spec is rejected before any run.
	if _, err := r.NoiseSeedSweep(core.EM3D, core.ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
		machine.DefaultConfig(), "jitter:max=100ns,prob=0.5", []uint64{1, 2}); err == nil {
		t.Error("fault clause in a noise spec accepted")
	}
	if _, executed := r.Stats(); executed != 0 || len(r.Failures()) != 0 {
		t.Errorf("rejected specs ran %d simulations with %d failures, want none", executed, len(r.Failures()))
	}
	if _, err := r.DelayPropagation(core.EM3D, core.ScaleTiny, mechs,
		machine.DefaultConfig(), 99); err == nil {
		t.Error("out-of-range delay node accepted")
	}
}
