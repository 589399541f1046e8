package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"jitter:max=200ns,prob=0.1",
		"outage:node=*,start=10us,dur=2us,every=50us",
		"stall:node=3,start=1us,dur=500ns",
		"jitter:max=1us,prob=0.5;outage:node=0,start=0ps,dur=1ns;stall:node=*,start=2ms,dur=1us,every=2ms",
	}
	for _, spec := range specs {
		c, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if !c.enabled() {
			t.Errorf("Parse(%q): config reports disabled", spec)
		}
		// String must render the canonical form, and re-parsing it must
		// yield the identical config (spec strings are memo-cache keys).
		c2, err := Parse(c.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", c.String(), err)
			continue
		}
		if !reflect.DeepEqual(c, c2) {
			t.Errorf("round trip changed config:\n  spec %q\n  got  %q", spec, c.String())
		}
	}
}

func TestParseWhitespaceAndDefaults(t *testing.T) {
	c, err := Parse(" jitter:max=100ns ; outage:node=5,dur=1us ")
	if err != nil {
		t.Fatal(err)
	}
	if c.Jitter.Prob != 1 {
		t.Errorf("jitter prob default = %v, want 1", c.Jitter.Prob)
	}
	if len(c.Outages) != 1 || c.Outages[0].Node != 5 || c.Outages[0].Start != 0 {
		t.Errorf("outage = %+v", c.Outages)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"jitter":                               "want kind:key=val",
		"jitter:prob=0.5":                      "needs max",
		"jitter:max=100ns,prob=2":              "bad prob",
		"jitter:max=100ns;jitter:max=1us":      "duplicate jitter",
		"outage:start=0ns,dur=1us":             "needs node",
		"outage:node=x,dur=1us":                "bad node",
		"outage:node=1":                        "needs dur",
		"outage:node=1,dur=2us,every=1us":      "never closes",
		"outage:node=1,dur=1us,dur=2us":        "duplicate key",
		"stall:node=1,dur=10crowns":            "bad duration",
		"teleport:node=1,dur=1us":              "unknown clause kind",
		"outage:node=1,dur=1us,flavor=vanilla": "unknown window key",
	}
	for spec, wantSub := range bad {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", spec, wantSub)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", spec, err, wantSub)
		}
	}
}

// TestParseErrorsStable: a clause with several bad values reports the
// first in spec order, the same way every time.
func TestParseErrorsStable(t *testing.T) {
	for spec, want := range map[string]string{
		"jitter:max=bad,prob=2":          `bad duration "bad"`,
		"outage:node=x,dur=1us,every=zz": `bad node "x"`,
	} {
		_, first := Parse(spec)
		if first == nil || !strings.Contains(first.Error(), want) {
			t.Fatalf("Parse(%q) error %v, want substring %q", spec, first, want)
		}
		for i := 0; i < 100; i++ {
			if _, err := Parse(spec); err == nil || err.Error() != first.Error() {
				t.Fatalf("Parse(%q) error %v, then %v", spec, first, err)
			}
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]sim.Time{
		"0ps":   0,
		"300ns": 300 * sim.Nanosecond,
		"40us":  40 * sim.Microsecond,
		"2ms":   2 * sim.Millisecond,
		"1.5us": 1500 * sim.Nanosecond,
		"250ps": 250,
	}
	for s, want := range cases {
		got, err := parseDuration(s)
		if err != nil || got != want {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "5", "5s", "-1ns"} {
		if _, err := parseDuration(s); err == nil {
			t.Errorf("parseDuration(%q) succeeded, want error", s)
		}
	}
}

func TestWindowActiveUntil(t *testing.T) {
	oneShot := Window{Node: 0, Start: 100, Dur: 50}
	for _, tc := range []struct {
		t    sim.Time
		want sim.Time
	}{
		{0, 0}, {99, 0}, {100, 150}, {149, 150}, {150, 0}, {1000, 0},
	} {
		if got := oneShot.activeUntil(tc.t); got != tc.want {
			t.Errorf("one-shot activeUntil(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	repeating := Window{Node: 0, Start: 100, Dur: 50, Every: 200}
	for _, tc := range []struct {
		t    sim.Time
		want sim.Time
	}{
		{99, 0}, {100, 150}, {149, 150}, {150, 0}, {299, 0},
		{300, 350}, {320, 350}, {350, 0}, {500, 550},
	} {
		if got := repeating.activeUntil(tc.t); got != tc.want {
			t.Errorf("repeating activeUntil(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	draw := func(seed uint64) []sim.Time {
		in := mustNew(t, "jitter:max=300ns,prob=0.4", seed, "", 0)
		out := make([]sim.Time, 200)
		for i := range out {
			out[i] = in.PacketDelay(0, 1)
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("same seed produced different jitter schedules")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("different seeds produced identical jitter schedules")
	}
}

func TestPacketJitterBoundsAndStats(t *testing.T) {
	in := mustNew(t, "jitter:max=100ns,prob=1", 1, "", 0)
	nonzero := 0
	for i := 0; i < 1000; i++ {
		d := in.PacketDelay(0, 1)
		if d < 0 || d > 100*sim.Nanosecond {
			t.Fatalf("jitter %v out of [0, 100ns]", d)
		}
		if d > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("prob=1 jitter never fired")
	}
	if got := in.Stats().Jittered; got != int64(nonzero) {
		t.Errorf("Stats.Jittered = %d, want %d", got, nonzero)
	}

	// prob=0.1 must jitter roughly a tenth of packets, not all of them.
	in = mustNew(t, "jitter:max=100ns,prob=0.1", 1, "", 0)
	fired := 0
	for i := 0; i < 1000; i++ {
		if in.PacketDelay(0, 1) > 0 {
			fired++
		}
	}
	if fired == 0 || fired > 300 {
		t.Errorf("prob=0.1 fired %d/1000 times", fired)
	}
}

func TestLinkBlockedUntil(t *testing.T) {
	in := mustNew(t, "outage:node=3,start=1us,dur=2us", 1, "", 0)
	if got := in.LinkBlockedUntil(0, 1, 2*sim.Microsecond); got != 0 {
		t.Errorf("unrelated link blocked until %v", got)
	}
	if got := in.LinkBlockedUntil(3, 4, 500*sim.Nanosecond); got != 0 {
		t.Errorf("link blocked before window opens: %v", got)
	}
	want := 3 * sim.Microsecond
	if got := in.LinkBlockedUntil(3, 4, 2*sim.Microsecond); got != want {
		t.Errorf("blocked until %v, want %v (node as link endpoint a)", got, want)
	}
	if got := in.LinkBlockedUntil(2, 3, 2*sim.Microsecond); got != want {
		t.Errorf("blocked until %v, want %v (node as link endpoint b)", got, want)
	}
	if got := in.Stats().OutageDelays; got != 2 {
		t.Errorf("Stats.OutageDelays = %d, want 2", got)
	}
}

func TestDrainStalledUntilAllNodes(t *testing.T) {
	in := mustNew(t, "stall:node=*,start=0ps,dur=1us,every=10us", 1, "", 0)
	if got := in.DrainStalledUntil(7, 500*sim.Nanosecond); got != sim.Microsecond {
		t.Errorf("stalled until %v, want 1us", got)
	}
	if got := in.DrainStalledUntil(7, 5*sim.Microsecond); got != 0 {
		t.Errorf("stalled outside window: %v", got)
	}
	if got := in.DrainStalledUntil(7, 10*sim.Microsecond); got != 11*sim.Microsecond {
		t.Errorf("second opening: stalled until %v, want 11us", got)
	}
}

func TestZeroConfig(t *testing.T) {
	var c Config
	if c.enabled() {
		t.Error("zero config reports enabled")
	}
	if c.String() != "" {
		t.Errorf("zero config String = %q, want empty", c.String())
	}
	if in, err := New("", 1, " ; ", 1); in != nil || err != nil {
		t.Errorf("New with empty specs = %v, %v; want no injector", in, err)
	}
}

// mustNew builds an injector from the two specs, failing the test if New
// rejects them or returns no injector.
func mustNew(t *testing.T, faultSpec string, faultSeed uint64, noiseSpec string, noiseSeed uint64) *Injector {
	t.Helper()
	in, err := New(faultSpec, faultSeed, noiseSpec, noiseSeed)
	if err != nil || in == nil {
		t.Fatalf("New(%q, %d, %q, %d) = %v, %v", faultSpec, faultSeed, noiseSpec, noiseSeed, in, err)
	}
	return in
}

// TestNewSeedsDrawIndependently: on one injector, jitter draws from the
// fault seed and network noise from the noise seed, exactly as two
// single-spec injectors draw them.
func TestNewSeedsDrawIndependently(t *testing.T) {
	const faults, noise = "jitter:max=300ns,prob=0.4", "netnoise:node=*,dist=exp,mean=100ns,prob=0.5"
	both := mustNew(t, faults, 3, noise, 7)
	jitter := mustNew(t, faults, 3, "", 0)
	net := mustNew(t, "", 0, noise, 7)
	for i := 0; i < 200; i++ {
		src, dst := i%16, (i+5)%16
		want := jitter.PacketDelay(src, dst) + net.PacketDelay(src, dst)
		if got := both.PacketDelay(src, dst); got != want {
			t.Fatalf("packet %d: delay %v, want %v", i, got, want)
		}
	}
	got, want := both.Stats(), jitter.Stats()
	noiseOnly := got
	noiseOnly.Jittered, noiseOnly.OutageDelays, noiseOnly.StallRefusals = 0, 0, 0
	if got.Jittered != want.Jittered || noiseOnly != net.Stats() {
		t.Errorf("stats %+v, want jitter %+v and noise %+v", got, want, net.Stats())
	}
}
