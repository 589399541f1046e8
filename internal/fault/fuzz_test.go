package fault

import (
	"reflect"
	"testing"
)

// FuzzParseSpec fuzzes the fault/noise spec grammar: Parse must never
// panic, a spec it rejects must be rejected with the same error text
// every time, and any spec it accepts must render (String) to a
// canonical form that re-parses to the identical Config — the fixed
// point the memo cache and run log rely on, since canonical spec strings
// are part of the cache key.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"jitter:max=200ns,prob=0.1",
		"outage:node=*,start=10us,dur=2us,every=50us",
		"stall:node=3,start=1us,dur=500ns",
		"hostnoise:node=*,dist=heavytail,mean=2us",
		"netnoise:node=1,dist=exp,mean=100ns,prob=0.5",
		"delay:node=4,at=10us,dur=2us",
		"hostnoise:node=*,dist=exp,mean=500ns;netnoise:node=*,dist=uniform,mean=20ns;delay:node=0,dur=1us",
		"jitter:max=1us;outage:node=0,dur=1ns;stall:node=*,start=2ms,dur=1us,every=2ms",
		"hostnoise:dist=exp,mean=1.5us,prob=0.999",
		"delay:node=-1,at=0ps,dur=250ps",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			if _, again := Parse(spec); again == nil || again.Error() != err.Error() {
				t.Fatalf("Parse(%q) rejected with %q, then %v", spec, err, again)
			}
			return
		}
		canon := c.String()
		c2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok but canonical form %q does not re-parse: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("canonical form is not a fixed point:\n  spec  %q\n  canon %q\n  cfg   %+v\n  again %+v", spec, canon, c, c2)
		}
		if canon2 := c2.String(); canon2 != canon {
			t.Fatalf("String unstable: %q then %q (from %q)", canon, canon2, spec)
		}
	})
}
