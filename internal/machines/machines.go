package machines

import "fmt"

// NA marks an unavailable numeric field.
const NA = -1

// Machine is one row of Table 1. Latencies are in processor cycles;
// NetLatency is the one-way transit time of a 24-byte packet.
type Machine struct {
	Name          string
	MHz           float64
	Topology      string
	BisectionMBs  float64 // bisection bandwidth, Mbytes/s (NA if none)
	BytesPerCycle float64 // bisection bytes per processor cycle (NA if none)
	NetLatency    float64 // cycles (NA if unknown)
	RemoteMiss    float64 // cycles (NA if unsupported)
	LocalMiss     float64 // cycles
	Note          string  // "", "projected", or "simulated"

	// PaperBisPerMiss is Table 2's printed bisection-bytes-per-local-miss
	// where it differs from BytesPerCycle*LocalMiss (the paper's FLASH
	// and Origin rows do not follow its own formula); NA elsewhere.
	PaperBisPerMiss float64
}

// Table1 returns the paper's Table 1 rows in printed order.
func Table1() []Machine {
	return []Machine{
		{Name: "MIT Alewife", MHz: 20, Topology: "4x8 Mesh", BisectionMBs: 360, BytesPerCycle: 18.0, NetLatency: 15, RemoteMiss: 50, LocalMiss: 11, PaperBisPerMiss: NA},
		{Name: "TMC CM5", MHz: 33, Topology: "4-ary Fat-Tree", BisectionMBs: 640, BytesPerCycle: 19.4, NetLatency: 50, RemoteMiss: NA, LocalMiss: 16, PaperBisPerMiss: NA},
		{Name: "KSR-2", MHz: 20, Topology: "Ring", BisectionMBs: 1000, BytesPerCycle: 50.0, NetLatency: NA, RemoteMiss: 126, LocalMiss: 18, PaperBisPerMiss: NA},
		{Name: "MIT J-Machine", MHz: 12.5, Topology: "4x4x2 Mesh", BisectionMBs: 3200, BytesPerCycle: 256.0, NetLatency: 7, RemoteMiss: NA, LocalMiss: 7, PaperBisPerMiss: NA},
		{Name: "MIT M-Machine", MHz: 100, Topology: "4x4x2 Mesh", BisectionMBs: 12800, BytesPerCycle: 128.0, NetLatency: 10, RemoteMiss: 154, LocalMiss: 21, Note: "simulated", PaperBisPerMiss: NA},
		{Name: "Intel Delta", MHz: 40, Topology: "4x8 Mesh", BisectionMBs: 216, BytesPerCycle: 5.4, NetLatency: 15, RemoteMiss: NA, LocalMiss: 10, PaperBisPerMiss: NA},
		{Name: "Intel Paragon", MHz: 50, Topology: "4x8 Mesh", BisectionMBs: 2800, BytesPerCycle: 56.0, NetLatency: 12, RemoteMiss: NA, LocalMiss: 10, PaperBisPerMiss: NA},
		{Name: "Stanford DASH", MHz: 33, Topology: "2x4 4-proc clusters", BisectionMBs: 480, BytesPerCycle: 14.5, NetLatency: 31, RemoteMiss: 120, LocalMiss: 30, PaperBisPerMiss: NA},
		{Name: "Stanford FLASH", MHz: 200, Topology: "4x8 Mesh", BisectionMBs: 3200, BytesPerCycle: 16.0, NetLatency: 62, RemoteMiss: 352, LocalMiss: 40, Note: "projected", PaperBisPerMiss: 1248},
		{Name: "Wisconsin T0", MHz: 200, Topology: "none simulated", BisectionMBs: NA, BytesPerCycle: NA, NetLatency: 200, RemoteMiss: 1461, LocalMiss: 40, Note: "simulated", PaperBisPerMiss: NA},
		{Name: "Wisconsin T1", MHz: 200, Topology: "none simulated", BisectionMBs: NA, BytesPerCycle: NA, NetLatency: 200, RemoteMiss: 401, LocalMiss: 40, Note: "simulated", PaperBisPerMiss: NA},
		{Name: "Cray T3D", MHz: 150, Topology: "4x2x2 Torus 2-proc clusters", BisectionMBs: 4800, BytesPerCycle: 32.0, NetLatency: 15, RemoteMiss: 100, LocalMiss: 23, PaperBisPerMiss: NA},
		{Name: "Cray T3E", MHz: 300, Topology: "4x4x2 Torus", BisectionMBs: 19200, BytesPerCycle: 64.0, NetLatency: 110, RemoteMiss: 450, LocalMiss: 80, PaperBisPerMiss: NA},
		{Name: "SGI Origin", MHz: 200, Topology: "Hypercube 4-proc clusters", BisectionMBs: 10800, BytesPerCycle: 54.0, NetLatency: 60, RemoteMiss: 150, LocalMiss: 61, PaperBisPerMiss: 2700},
	}
}

// ByName returns the machine row with the given name.
func ByName(name string) (Machine, error) {
	for _, m := range Table1() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("machines: unknown machine %q", name)
}

// Alewife returns the study's base machine row.
func Alewife() Machine {
	m, _ := ByName("MIT Alewife")
	return m
}

// BisPerLocalMiss returns Table 2's "bisection bytes per local-miss
// time": bytes/cycle times local miss cycles. NA when no network.
func (m Machine) BisPerLocalMiss() float64 {
	if m.BytesPerCycle == NA {
		return NA
	}
	return m.BytesPerCycle * m.LocalMiss
}

// NetLatPerLocalMiss returns Table 2's "network latency in local-miss
// times". NA when the latency is unknown.
func (m Machine) NetLatPerLocalMiss() float64 {
	if m.NetLatency == NA {
		return NA
	}
	return m.NetLatency / m.LocalMiss
}

// RelNetLatency returns this machine's network latency relative to
// Alewife's 15 cycles (the X-axis of Figures 9/10, normalized).
func (m Machine) RelNetLatency() float64 {
	if m.NetLatency == NA {
		return NA
	}
	return m.NetLatency / Alewife().NetLatency
}
