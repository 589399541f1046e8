package iccg

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// refBodySM is bodySM with the row scan that ran on the thread before
// Proc.NextZero: the reference the scan must match.
func (a *App) refBodySM(p *machine.Proc) {
	me := p.ID
	pf := a.mech.UsesPrefetch()
	remaining := make([]int32, 0, a.myRows[me])
	for i := 0; i < a.par.Rows; i++ {
		if a.sys.Part[i] == me {
			remaining = append(remaining, int32(i))
		}
	}
	backoff := int64(scanBackoff)
	for len(remaining) > 0 {
		progress := false
		out := remaining[:0]
		for _, row := range remaining {
			if p.ReadSync(a.rowAddr[row]+1) != 0 {
				out = append(out, row)
				continue
			}
			progress = true
			a.processRowSM(p, row, pf)
		}
		remaining = out
		if !progress {
			p.SpinCycles(backoff)
			if backoff < scanBackoffMax {
				backoff *= 2
			}
		} else {
			backoff = scanBackoff
		}
	}
	a.bar.Wait(p)
}

// scanOutcome is everything a run leaves that the scan must not change.
type scanOutcome struct {
	Res        machine.Result
	Spans      []obs.Span
	Dispatched uint64
}

func runSM(t *testing.T, mech apps.Mechanism, set func(*machine.Config), ref bool) scanOutcome {
	t.Helper()
	cfg := machine.DefaultConfig()
	if set != nil {
		set(&cfg)
	}
	cfg.SpanCap = 1 << 20
	cfg.CritPath = true
	a := New(tinyParams())
	m := machine.New(cfg)
	a.Setup(m, mech)
	body := a.Body
	if ref {
		body = a.refBodySM
	}
	res := m.Run(body)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := m.Spans.Total(); n > int64(cfg.SpanCap) {
		t.Fatalf("%d spans overflow the %d-span ring", n, cfg.SpanCap)
	}
	return scanOutcome{Res: res, Spans: m.Spans.Items(), Dispatched: m.Eng.Dispatched()}
}

// TestNextZeroMatchesThreadScan checks the shared-memory body against
// its pre-scan reference: the whole Result, every span and the
// dispatched event count must be equal. Producers' updates invalidate
// counters that do not reach zero, so owners' polls also miss and read
// a nonzero count.
func TestNextZeroMatchesThreadScan(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  func(*machine.Config)
	}{
		{"sc", nil},
		{"rc", func(c *machine.Config) { c.Mem.Consistency = mem.RC }},
		{"ideal", func(c *machine.Config) { c.IdealNetOneWayCycles = 100 }},
		{"cross16", func(c *machine.Config) {
			c.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: 16}
		}},
	} {
		for _, mech := range []apps.Mechanism{apps.SM, apps.SMPrefetch} {
			got, want := runSM(t, mech, c.cfg, false), runSM(t, mech, c.cfg, true)
			name := c.name + "/" + mech.String()
			if !reflect.DeepEqual(got.Res, want.Res) {
				t.Errorf("%s: Result differs: %d cycles, breakdown %v; reference %d cycles, breakdown %v",
					name, got.Res.Cycles, got.Res.Breakdown, want.Res.Cycles, want.Res.Breakdown)
			}
			if got.Dispatched != want.Dispatched {
				t.Errorf("%s: %d events dispatched, reference %d", name, got.Dispatched, want.Dispatched)
			}
			if !reflect.DeepEqual(got.Spans, want.Spans) {
				t.Errorf("%s: %d spans differ from the reference's %d", name, len(got.Spans), len(want.Spans))
			}
		}
	}
}
