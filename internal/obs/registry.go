package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/stats"
)

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a point-in-time value, with a high-water helper for
// tracking maxima (queue depths, occupancy).
type Gauge struct{ v int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v = v }

// SetMax stores v if it exceeds the current value (high-water mark).
func (g *Gauge) SetMax(v int64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// histBuckets is the fixed bucket count: bucket i holds observations
// whose value has bit length i, i.e. the power-of-two range
// [2^(i-1), 2^i); bucket 0 holds zero and negative observations. 64
// buckets cover the full int64 range.
const histBuckets = 65

// Histogram accumulates observations into power-of-two buckets. The
// intended unit is simulated cycles (latencies, depths); the exponential
// buckets match the dynamic range of miss latencies under congestion.
type Histogram struct {
	buckets [histBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() int64 { return h.max }

// Bucket returns the count in power-of-two bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Percentile returns the nearest-rank p-quantile of the observed
// samples. Samples are bucketed by power of two, so the result is the
// upper bound of the bucket holding the nearest-rank sample, clamped to
// the observed maximum (exact for p=1). Returns 0 when empty. The rank
// convention matches stats.Summarize.
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(stats.NearestRank(int(h.count), p))
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			ub := h.max
			if i < 63 {
				ub = int64(1)<<uint(i) - 1
			}
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// P50 returns the nearest-rank median (bucket upper bound).
func (h *Histogram) P50() int64 { return h.Percentile(0.50) }

// P99 returns the nearest-rank 99th percentile (bucket upper bound).
func (h *Histogram) P99() int64 { return h.Percentile(0.99) }

// metricKind tags the concrete type held by a registry entry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered instrument.
type metric struct {
	name  string // e.g. "mem_miss_latency_cycles"
	label string // e.g. "node=003" or "" for machine-wide
	kind  metricKind
	c     *Counter
	g     *Gauge
	h     *Histogram
}

// key renders the canonical snapshot identity.
func (m *metric) key() string {
	if m.label == "" {
		return m.name
	}
	return m.name + "{" + m.label + "}"
}

// Registry holds named metrics with deterministic snapshot order. It is
// not safe for concurrent use: the simulator is single-threaded by
// construction, and each run owns a private registry. Registering the
// same (name, label) twice returns the existing instrument, so
// subsystems may look instruments up idempotently.
type Registry struct {
	ordered []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// NodeLabel formats the canonical per-node label. Zero padding keeps
// lexicographic snapshot order equal to numeric node order.
func NodeLabel(node int) string { return fmt.Sprintf("node=%03d", node) }

func (r *Registry) lookup(name, label string, kind metricKind) *metric {
	key := name + "\x00" + label
	if m, ok := r.index[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type", m.key()))
		}
		return m
	}
	m := &metric{name: name, label: label, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.ordered = append(r.ordered, m)
	r.index[key] = m
	return m
}

// Counter registers (or finds) a counter. label may be empty.
func (r *Registry) Counter(name, label string) *Counter {
	return r.lookup(name, label, kindCounter).c
}

// Gauge registers (or finds) a gauge. label may be empty.
func (r *Registry) Gauge(name, label string) *Gauge {
	return r.lookup(name, label, kindGauge).g
}

// Histogram registers (or finds) a power-of-two histogram. label may be
// empty.
func (r *Registry) Histogram(name, label string) *Histogram {
	return r.lookup(name, label, kindHistogram).h
}

// FindHistogram returns the histogram registered under (name, label), or
// nil if absent. Unlike Histogram it never registers, so post-run
// consumers (telemetry) can probe a snapshot without mutating it.
func (r *Registry) FindHistogram(name, label string) *Histogram {
	if m, ok := r.index[name+"\x00"+label]; ok && m.kind == kindHistogram {
		return m.h
	}
	return nil
}

// Len reports the number of registered instruments.
func (r *Registry) Len() int { return len(r.ordered) }

// WriteText writes the snapshot as text, one instrument per line, sorted
// by (name, label). Counters and gauges print their value; histograms
// print count, sum, max, and every non-empty power-of-two bucket as
// b<i>=<count> where bucket i holds values of bit length i (the range
// [2^(i-1), 2^i)). The output is byte-identical across runs of the same
// configuration — golden tests rely on that.
func (r *Registry) WriteText(w io.Writer) error {
	ms := make([]*metric, len(r.ordered))
	copy(ms, r.ordered)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].label < ms[j].label
	})
	for _, m := range ms {
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.key(), m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.key(), m.g.Value())
		case kindHistogram:
			h := m.h
			_, err = fmt.Fprintf(w, "%s hist count=%d sum=%d max=%d", m.key(), h.count, h.sum, h.max)
			if err != nil {
				return err
			}
			for i, c := range h.buckets {
				if c == 0 {
					continue
				}
				if _, err = fmt.Fprintf(w, " b%d=%d", i, c); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintln(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
