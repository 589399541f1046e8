package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/iccg"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/unstruc"
	"repro/internal/core"
	"repro/internal/workload"
)

// newApp builds an application exactly as core.NewAppSized does, except
// that seed is added to the generator's default Params.Seed. At seed 0
// the instance is core's, byte for byte (TestSeedZeroMatchesCoreRun). The
// scale table is repeated here because core exposes no seed: the
// benchmark feeds its own inputs to the program from outside.
func newApp(name core.AppName, sc core.Scale, procs int, scaleProblem bool, seed int64) (apps.App, error) {
	sized := func(base int) int {
		if !scaleProblem {
			return base
		}
		return base * procs / core.BaseProcs
	}
	pow2 := procs&(procs-1) == 0
	switch name {
	case core.EM3D:
		p := workload.DefaultEM3DParams()
		switch sc {
		case core.ScaleTiny:
			p = p.Scaled(sized(320), 2)
		case core.ScaleSweep:
			p = p.Scaled(sized(1000), 3)
		case core.ScaleDefault:
			p = p.Scaled(sized(2000), 5)
		default:
			return nil, fmt.Errorf("bench: no %s size for scale %s", name, sc)
		}
		p.Procs, p.Seed = procs, p.Seed+seed
		if p.Nodes < p.Procs {
			return nil, fmt.Errorf("bench: em3d at scale %s is too small for %d processors", sc, procs)
		}
		return em3d.New(p), nil
	case core.UNSTRUC:
		p := workload.DefaultUnstrucParams()
		switch sc {
		case core.ScaleTiny:
			p = p.Scaled(sized(400), 2)
		case core.ScaleSweep:
			p = p.Scaled(sized(1000), 3)
		case core.ScaleDefault:
			p = p.Scaled(sized(2000), 4)
		default:
			return nil, fmt.Errorf("bench: no %s size for scale %s", name, sc)
		}
		if !pow2 {
			return nil, fmt.Errorf("bench: unstruc needs a power-of-two processor count, not %d", procs)
		}
		p.Procs, p.Seed = procs, p.Seed+seed
		return unstruc.New(p), nil
	case core.ICCG:
		p := workload.DefaultICCGParams()
		switch sc {
		case core.ScaleTiny:
			p = p.Scaled(sized(640))
		case core.ScaleSweep:
			p = p.Scaled(sized(2000))
		case core.ScaleDefault:
			p = p.Scaled(sized(4000))
		default:
			return nil, fmt.Errorf("bench: no %s size for scale %s", name, sc)
		}
		p.Procs, p.Seed = procs, p.Seed+seed
		return iccg.New(p), nil
	case core.MOLDYN:
		p := workload.DefaultMoldynParams()
		switch sc {
		case core.ScaleTiny:
			p = p.ScaledBox(sized(256), 3)
			p.ListEvery = 2
		case core.ScaleSweep:
			p = p.ScaledBox(sized(512), 3)
			p.ListEvery = 2
		case core.ScaleDefault:
			p = p.ScaledBox(sized(1024), 6)
			p.ListEvery = 3
		default:
			return nil, fmt.Errorf("bench: no %s size for scale %s", name, sc)
		}
		if !pow2 {
			return nil, fmt.Errorf("bench: moldyn needs a power-of-two processor count, not %d", procs)
		}
		p.Procs, p.Seed = procs, p.Seed+seed
		return moldyn.New(p), nil
	}
	return nil, fmt.Errorf("bench: unknown application %q", name)
}
