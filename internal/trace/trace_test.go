// Package trace holds the contract tests of the protocol-event trace as
// the machine records it: obs.Event values retained in an obs.Ring,
// written out by obs.DumpEvents, and named by obs.EventKind. The code
// itself lives in internal/obs; this directory has no non-test files.
package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestBufferRetainsInOrder(t *testing.T) {
	b := obs.NewRing[obs.Event](4)
	for i := 0; i < 3; i++ {
		b.Add(obs.Event{At: sim.Time(i), Node: i, Kind: obs.KMsgSend})
	}
	evs := b.Items()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, e := range evs {
		if e.Node != i {
			t.Errorf("event %d from node %d", i, e.Node)
		}
	}
}

func TestBufferRingWraps(t *testing.T) {
	b := obs.NewRing[obs.Event](4)
	for i := 0; i < 10; i++ {
		b.Add(obs.Event{At: sim.Time(i), Node: i, Kind: obs.KInval})
	}
	if b.Total() != 10 {
		t.Errorf("total = %d, want 10", b.Total())
	}
	evs := b.Items()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Node != 6+i {
			t.Errorf("retained wrong window: %v", evs)
			break
		}
	}
}

func TestDump(t *testing.T) {
	b := obs.NewRing[obs.Event](2)
	for i := 0; i < 3; i++ {
		b.Add(obs.Event{At: sim.Time(i) * 50000, Node: i, Kind: obs.KBarrier})
	}
	var buf bytes.Buffer
	obs.DumpEvents(&buf, sim.NewClock(20), b)
	out := buf.String()
	if !strings.Contains(out, "barrier") {
		t.Errorf("dump missing kind:\n%s", out)
	}
	if !strings.Contains(out, "1 earlier events dropped") {
		t.Errorf("dump missing drop note:\n%s", out)
	}
}

func TestKindStrings(t *testing.T) {
	for k := obs.KMissStart; k <= obs.KLock; k++ {
		if strings.Contains(k.String(), "EventKind(") {
			t.Errorf("kind %d lacks a name", int(k))
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	// Every in-range kind must have a distinct name (a duplicate would
	// make dumps ambiguous), and out-of-range values must degrade to the
	// numeric form rather than stealing a real kind's name.
	seen := map[string]obs.EventKind{}
	for k := obs.KMissStart; k <= obs.KLock; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	for _, k := range []obs.EventKind{obs.KLock + 1, 99, -1} {
		want := fmt.Sprintf("EventKind(%d)", int(k))
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(k), got, want)
		}
		if _, taken := seen[k.String()]; taken {
			t.Errorf("out-of-range kind %d collides with a named kind", int(k))
		}
	}
}

func TestDumpPartialRingReportsNoDrops(t *testing.T) {
	// A partially filled ring (len < cap) has dropped nothing; the drop
	// accounting must measure against capacity, not the filling length.
	b := obs.NewRing[obs.Event](8)
	for i := 0; i < 3; i++ {
		b.Add(obs.Event{At: sim.Time(i) * 50000, Node: i, Kind: obs.KBarrier})
	}
	var buf bytes.Buffer
	obs.DumpEvents(&buf, sim.NewClock(20), b)
	if strings.Contains(buf.String(), "dropped") {
		t.Errorf("partial ring reported drops:\n%s", buf.String())
	}
}
