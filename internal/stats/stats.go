package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// VolumeKind classifies bytes injected into the network, matching the
// four components of Figure 5 in the paper.
type VolumeKind int

const (
	// VolInvalidates is all traffic associated with invalidating cached
	// copies of remote data (invalidate messages and their acks).
	VolInvalidates VolumeKind = iota
	// VolRequests is read, write, and modify request traffic.
	VolRequests
	// VolHeaders is message headers: active-message headers for message
	// passing, cache-line transfer headers for shared memory.
	VolHeaders
	// VolData is payload: message-passing payload bytes and shared-memory
	// cache lines (including any DMA alignment padding).
	VolData

	numVolumeKinds
)

func (k VolumeKind) String() string {
	switch k {
	case VolInvalidates:
		return "invalidates"
	case VolRequests:
		return "requests"
	case VolHeaders:
		return "headers"
	case VolData:
		return "data"
	}
	return fmt.Sprintf("VolumeKind(%d)", int(k))
}

// Volume accumulates network-injected bytes by kind.
type Volume struct {
	Bytes [numVolumeKinds]int64
}

// Add records n bytes of kind k.
func (v *Volume) Add(k VolumeKind, n int64) { v.Bytes[k] += n }

// Total returns the sum across kinds.
func (v Volume) Total() int64 {
	var t int64
	for _, b := range v.Bytes {
		t += b
	}
	return t
}

// Plus returns the element-wise sum of two volumes.
func (v Volume) Plus(o Volume) Volume {
	var r Volume
	for i := range r.Bytes {
		r.Bytes[i] = v.Bytes[i] + o.Bytes[i]
	}
	return r
}

func (v Volume) String() string {
	return fmt.Sprintf("inval=%d req=%d hdr=%d data=%d total=%d",
		v.Bytes[VolInvalidates], v.Bytes[VolRequests], v.Bytes[VolHeaders],
		v.Bytes[VolData], v.Total())
}

// TimeBucket classifies processor time, matching the four components of
// Figure 4 in the paper.
type TimeBucket int

const (
	// BucketSync is time spent in barriers, acquiring locks, and
	// spin-waiting on synchronization variables.
	BucketSync TimeBucket = iota
	// BucketMsgOverhead is processor overhead to send and receive
	// messages (interrupt entry/exit, poll, message construction) and,
	// for bulk transfer, gather/scatter copying time.
	BucketMsgOverhead
	// BucketMemWait is time stalled waiting for cache misses and network
	// interface resources.
	BucketMemWait
	// BucketCompute is time spent computing.
	BucketCompute

	numTimeBuckets
)

func (b TimeBucket) String() string {
	switch b {
	case BucketSync:
		return "sync"
	case BucketMsgOverhead:
		return "msg-overhead"
	case BucketMemWait:
		return "mem+ni-wait"
	case BucketCompute:
		return "compute"
	}
	return fmt.Sprintf("TimeBucket(%d)", int(b))
}

// Breakdown accumulates simulated time by bucket for one processor.
type Breakdown struct {
	T [numTimeBuckets]sim.Time
}

// Add charges d to bucket b.
func (bd *Breakdown) Add(b TimeBucket, d sim.Time) { bd.T[b] += d }

// Total returns the sum across buckets.
func (bd Breakdown) Total() sim.Time {
	var t sim.Time
	for _, d := range bd.T {
		t += d
	}
	return t
}

// Plus returns the element-wise sum of two breakdowns.
func (bd Breakdown) Plus(o Breakdown) Breakdown {
	var r Breakdown
	for i := range r.T {
		r.T[i] = bd.T[i] + o.T[i]
	}
	return r
}

// Frac returns bucket b's share of the total, or 0 for an empty breakdown.
func (bd Breakdown) Frac(b TimeBucket) float64 {
	tot := bd.Total()
	if tot == 0 {
		return 0
	}
	return float64(bd.T[b]) / float64(tot)
}

func (bd Breakdown) String() string {
	var parts []string
	for b := TimeBucket(0); b < numTimeBuckets; b++ {
		parts = append(parts, fmt.Sprintf("%s=%v", b, bd.T[b]))
	}
	return strings.Join(parts, " ")
}

// Events counts discrete protocol and mechanism events machine-wide.
type Events struct {
	LocalMisses      int64 // cache misses satisfied by local memory
	RemoteMissesCln  int64 // remote misses, line clean at home
	RemoteMissesDty  int64 // remote misses requiring owner intervention
	LimitLESSTraps   int64 // directory overflows handled in software
	Invalidations    int64 // invalidate messages sent
	WriteBacks       int64 // dirty lines written back on eviction
	Upgrades         int64 // S->M ownership requests
	MessagesSent     int64 // active messages launched
	MessagesRecv     int64 // active messages handled
	Interrupts       int64 // message interrupts taken
	Polls            int64 // poll operations executed
	PollHits         int64 // polls that found at least one message
	BulkTransfers    int64 // DMA bulk transfers
	BulkBytes        int64 // payload bytes moved by DMA
	PrefetchIssued   int64 // prefetch instructions executed
	PrefetchUseful   int64 // prefetched lines later referenced
	PrefetchUseless  int64 // prefetched lines evicted unreferenced
	LockAcquires     int64 // spin-lock acquisitions
	LockSpins        int64 // failed lock attempts (retries)
	BarrierArrivals  int64 // per-processor barrier arrivals
	NIQueueFullStall int64 // sends that stalled on a full network queue
	XTrafficPackets  int64 // cross-traffic packets injected
	XTrafficBytes    int64 // cross-traffic bytes injected
}

// Plus returns the field-wise sum of two event counters.
func (e Events) Plus(o Events) Events {
	return Events{
		LocalMisses:      e.LocalMisses + o.LocalMisses,
		RemoteMissesCln:  e.RemoteMissesCln + o.RemoteMissesCln,
		RemoteMissesDty:  e.RemoteMissesDty + o.RemoteMissesDty,
		LimitLESSTraps:   e.LimitLESSTraps + o.LimitLESSTraps,
		Invalidations:    e.Invalidations + o.Invalidations,
		WriteBacks:       e.WriteBacks + o.WriteBacks,
		Upgrades:         e.Upgrades + o.Upgrades,
		MessagesSent:     e.MessagesSent + o.MessagesSent,
		MessagesRecv:     e.MessagesRecv + o.MessagesRecv,
		Interrupts:       e.Interrupts + o.Interrupts,
		Polls:            e.Polls + o.Polls,
		PollHits:         e.PollHits + o.PollHits,
		BulkTransfers:    e.BulkTransfers + o.BulkTransfers,
		BulkBytes:        e.BulkBytes + o.BulkBytes,
		PrefetchIssued:   e.PrefetchIssued + o.PrefetchIssued,
		PrefetchUseful:   e.PrefetchUseful + o.PrefetchUseful,
		PrefetchUseless:  e.PrefetchUseless + o.PrefetchUseless,
		LockAcquires:     e.LockAcquires + o.LockAcquires,
		LockSpins:        e.LockSpins + o.LockSpins,
		BarrierArrivals:  e.BarrierArrivals + o.BarrierArrivals,
		NIQueueFullStall: e.NIQueueFullStall + o.NIQueueFullStall,
		XTrafficPackets:  e.XTrafficPackets + o.XTrafficPackets,
		XTrafficBytes:    e.XTrafficBytes + o.XTrafficBytes,
	}
}

// RemoteMisses returns the total remote miss count.
func (e Events) RemoteMisses() int64 { return e.RemoteMissesCln + e.RemoteMissesDty }

// Summary describes a sample distribution (e.g. runtimes across noise
// seeds). Percentiles use the nearest-rank method, so every reported
// quantile is an actual sample — robust for the small sample counts a
// seed sweep produces.
type Summary struct {
	N    int     // sample count
	Mean float64 // arithmetic mean
	P50  int64   // median (nearest rank)
	P99  int64   // 99th percentile (nearest rank)
	Min  int64
	Max  int64
}

// nearestRank returns the 0-based index of the nearest-rank p-quantile
// in a sorted sample of n elements: ceil(p*n)-1, clamped to [0, n).
func nearestRank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Summarize computes a Summary of xs (the input is not modified). A
// nil/empty input yields the zero Summary.
func Summarize(xs []int64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum float64
	for _, x := range s {
		sum += float64(x)
	}
	return Summary{
		N:    len(s),
		Mean: sum / float64(len(s)),
		P50:  s[nearestRank(len(s), 0.50)],
		P99:  s[nearestRank(len(s), 0.99)],
		Min:  s[0],
		Max:  s[len(s)-1],
	}
}
