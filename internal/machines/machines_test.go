package machines

import (
	"math"
	"testing"
)

func TestTable1HasFourteenRows(t *testing.T) {
	rows := Table1()
	if len(rows) != 14 {
		t.Fatalf("Table 1 has %d rows, want 14", len(rows))
	}
	seen := map[string]bool{}
	for _, m := range rows {
		if seen[m.Name] {
			t.Errorf("duplicate machine %q", m.Name)
		}
		seen[m.Name] = true
		if m.LocalMiss <= 0 {
			t.Errorf("%s: local miss %v", m.Name, m.LocalMiss)
		}
	}
}

func TestAlewifeRow(t *testing.T) {
	a := Alewife()
	if a.MHz != 20 || a.BytesPerCycle != 18 || a.NetLatency != 15 || a.LocalMiss != 11 {
		t.Errorf("Alewife row wrong: %+v", a)
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("Cray T3E")
	if err != nil {
		t.Fatal(err)
	}
	if m.MHz != 300 {
		t.Errorf("T3E MHz = %v", m.MHz)
	}
	if _, err := ByName("PDP-11"); err == nil {
		t.Error("unknown machine did not error")
	}
}

// TestTable2DerivedValues checks our recomputation against the paper's
// printed Table 2 for every row where the paper follows its own formula.
func TestTable2DerivedValues(t *testing.T) {
	want := map[string]struct{ bis, lat float64 }{
		"MIT Alewife":   {198, 1.3},
		"TMC CM5":       {310, 3.1},
		"KSR-2":         {900, NA},
		"MIT J-Machine": {1792, 1.0},
		"MIT M-Machine": {2688, 0.5},
		"Intel Delta":   {54, 1.5},
		"Intel Paragon": {560, 1.2},
		"Stanford DASH": {435, 1.0},
		"Cray T3D":      {736, 0.7},
		"Cray T3E":      {5120, 1.4},
	}
	for name, w := range want {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.BisPerLocalMiss(); math.Abs(got-w.bis) > 0.5 {
			t.Errorf("%s bisection/local-miss = %.1f, want %.1f", name, got, w.bis)
		}
		if w.lat != NA {
			if got := m.NetLatPerLocalMiss(); math.Abs(got-w.lat) > 0.11 {
				t.Errorf("%s net-lat/local-miss = %.2f, want %.1f", name, got, w.lat)
			}
		}
	}
}

func TestNAPropagation(t *testing.T) {
	t0, _ := ByName("Wisconsin T0")
	if t0.BisPerLocalMiss() != NA {
		t.Error("no-network machine should have NA bisection per miss")
	}
	if got := t0.NetLatPerLocalMiss(); math.Abs(got-5.0) > 0.01 {
		t.Errorf("T0 latency per miss = %v, want 5.0 (paper)", got)
	}
	ksr, _ := ByName("KSR-2")
	if ksr.NetLatPerLocalMiss() != NA {
		t.Error("unknown latency should be NA")
	}
}

func TestPaperDivergenceRecorded(t *testing.T) {
	// The paper's FLASH and Origin Table 2 rows do not follow its own
	// formula; we must preserve the printed values for comparison.
	flash, _ := ByName("Stanford FLASH")
	if flash.PaperBisPerMiss != 1248 {
		t.Errorf("FLASH paper value = %v, want 1248", flash.PaperBisPerMiss)
	}
	origin, _ := ByName("SGI Origin")
	if origin.PaperBisPerMiss != 2700 {
		t.Errorf("Origin paper value = %v, want 2700", origin.PaperBisPerMiss)
	}
}

func TestRelativeToAlewife(t *testing.T) {
	if r := Alewife().RelNetLatency(); r != 1 {
		t.Errorf("Alewife relative latency = %v, want 1", r)
	}
	cm5, _ := ByName("TMC CM5")
	if r := cm5.RelNetLatency(); math.Abs(r-50.0/15) > 0.01 {
		t.Errorf("CM5 relative latency = %.2f, want 3.33", r)
	}
	ksr, _ := ByName("KSR-2")
	if ksr.RelNetLatency() != NA {
		t.Error("KSR-2 relative latency should be NA")
	}
}
