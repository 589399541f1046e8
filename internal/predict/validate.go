package predict

import "math"

// ErrorPct is the absolute relative error of a prediction against its
// measurement, in percent: the one definition behind every error cell,
// worst-error figure and mean the figures print.
func ErrorPct(predicted, measured float64) float64 {
	return 100 * math.Abs(predicted-measured) / measured
}

// ErrorStats accumulates predicted-vs-measured relative errors — the
// shared currency of model validation, used both for this package's
// dependency-graph model and for the closed-form model (internal/model)
// the figures layer compares it against. The mean is a float sum, so
// callers add pairs in a fixed order (mechanism order, not map order)
// to keep it bit-reproducible.
type ErrorStats struct {
	// N counts the (predicted, measured) pairs accumulated.
	N int
	// MaxPct is the worst absolute relative error seen, in percent.
	MaxPct float64
	sumPct float64
}

// Add folds in one predicted-vs-measured pair. Pairs with a zero or
// negative measurement are ignored: there is no meaningful relative
// error against nothing.
func (s *ErrorStats) Add(predicted, measured float64) {
	if measured <= 0 {
		return
	}
	e := ErrorPct(predicted, measured)
	if e > s.MaxPct {
		s.MaxPct = e
	}
	s.sumPct += e
	s.N++
}

// Merge folds another accumulation into this one.
func (s *ErrorStats) Merge(o ErrorStats) {
	if o.MaxPct > s.MaxPct {
		s.MaxPct = o.MaxPct
	}
	s.sumPct += o.sumPct
	s.N += o.N
}

// MeanPct is the mean absolute relative error in percent (0 when empty).
func (s *ErrorStats) MeanPct() float64 {
	if s.N == 0 {
		return 0
	}
	return s.sumPct / float64(s.N)
}
