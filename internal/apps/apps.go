package apps

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// Mechanism is one of the paper's five communication styles.
type Mechanism int

const (
	// SM is sequentially-consistent hardware shared memory.
	SM Mechanism = iota
	// SMPrefetch is shared memory plus software prefetch.
	SMPrefetch
	// MPInterrupt is fine-grained active messages received by interrupts.
	MPInterrupt
	// MPPoll is fine-grained active messages received by polling.
	MPPoll
	// Bulk is DMA bulk transfer.
	Bulk
)

// Mechanisms lists all five in presentation order (the paper's figures).
var Mechanisms = []Mechanism{SM, SMPrefetch, MPInterrupt, MPPoll, Bulk}

func (m Mechanism) String() string {
	switch m {
	case SM:
		return "shared-memory"
	case SMPrefetch:
		return "sm+prefetch"
	case MPInterrupt:
		return "mp-interrupt"
	case MPPoll:
		return "mp-poll"
	case Bulk:
		return "bulk-dma"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// Short returns a compact column label.
func (m Mechanism) Short() string {
	switch m {
	case SM:
		return "SM"
	case SMPrefetch:
		return "SM+PF"
	case MPInterrupt:
		return "MP-I"
	case MPPoll:
		return "MP-P"
	case Bulk:
		return "BULK"
	}
	return "?"
}

// UsesMessages reports whether the mechanism communicates via the
// message layer (as opposed to the coherence protocol).
func (m Mechanism) UsesMessages() bool { return m >= MPInterrupt }

// UsesPrefetch reports whether prefetch instructions are issued.
func (m Mechanism) UsesPrefetch() bool { return m == SMPrefetch }

// RecvMode returns the message reception mode for message mechanisms.
// Bulk transfers on Alewife are received like interrupt-driven messages.
func (m Mechanism) RecvMode() machine.RecvMode {
	if m == MPPoll {
		return machine.RecvPoll
	}
	return machine.RecvInterrupt
}

// App is one application bound to one machine and one mechanism. The
// lifecycle is: construct (generates the workload), Setup (allocates
// simulated memory and registers handlers), machine.Run(app.Body), then
// Validate against the sequential reference.
type App interface {
	// Name identifies the application ("em3d", "unstruc", ...).
	Name() string
	// Setup binds the app to a machine and mechanism. Called once,
	// before Machine.Run.
	Setup(m *machine.Machine, mech Mechanism)
	// Body is the SPMD per-processor program.
	Body(p *machine.Proc)
	// Validate compares the simulated result with the sequential
	// reference, returning a descriptive error on mismatch.
	Validate() error
}

// CyclesPerFlop converts application FLOP counts to Sparcle cycles.
const CyclesPerFlop = 2

// Close reports whether got matches want within relative error tol,
// taken against max(|want|, 1) so that values near zero compare
// absolutely: the check every Validate makes against its sequential
// reference.
func Close(got, want, tol float64) bool {
	return math.Abs(got-want)/math.Max(math.Abs(want), 1) <= tol
}

// BlockRange returns the [lo, hi) range of items owned by proc pr when n
// items are block-distributed over nprocs.
func BlockRange(n, nprocs, pr int) (lo, hi int) {
	return pr * n / nprocs, (pr + 1) * n / nprocs
}
