package obs

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// EventKind classifies protocol events.
type EventKind int

// Protocol event kinds.
const (
	KMissStart EventKind = iota // node began a miss transaction on line A (B=1 for write)
	KMissEnd                    // node completed a miss transaction on line A
	KInval                      // node's cached copy of line A was invalidated
	KMsgSend                    // node sent an active message to node A (B=bytes)
	KMsgRecv                    // node handled an active message from node A
	KBulk                       // node sent a bulk transfer to node A (B=payload bytes)
	KBarrier                    // node arrived at a barrier
	KLock                       // node acquired (B=1) or released (B=0) the lock at A
)

func (k EventKind) String() string {
	switch k {
	case KMissStart:
		return "miss-start"
	case KMissEnd:
		return "miss-end"
	case KInval:
		return "inval"
	case KMsgSend:
		return "msg-send"
	case KMsgRecv:
		return "msg-recv"
	case KBulk:
		return "bulk"
	case KBarrier:
		return "barrier"
	case KLock:
		return "lock"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one recorded protocol or message occurrence.
type Event struct {
	At   sim.Time
	Node int
	Kind EventKind
	A, B int64 // kind-specific operands (line, peer, bytes, ...)
}

// DumpEvents writes the retained events as text, timestamps in cycles,
// followed by a count of the events the ring evicted.
func DumpEvents(w io.Writer, clk sim.Clock, events *Ring[Event]) {
	retained := events.Items()
	for _, e := range retained {
		fmt.Fprintf(w, "%10d  node %2d  %-10s  a=%d b=%d\n",
			clk.ToCycles(e.At), e.Node, e.Kind, e.A, e.B)
	}
	if dropped := events.Total() - int64(len(retained)); dropped > 0 {
		fmt.Fprintf(w, "(%d earlier events dropped)\n", dropped)
	}
}
