package apps

import (
	"math"
	"testing"
)

func TestClose(t *testing.T) {
	for _, c := range []struct {
		got, want, tol float64
		close          bool
	}{
		{1000 + 1e-7, 1000, 1e-9, true}, // relative error 1e-10
		{1000 + 1e-5, 1000, 1e-9, false},
		{0.5 + 5e-10, 0.5, 1e-9, true}, // below 1 the error is absolute
		{0.5 + 2e-9, 0.5, 1e-9, false},
		{-2e6, -2e6 * (1 + 5e-7), 1e-6, true},
		{math.NaN(), 1, 1e-6, false},
	} {
		if got := Close(c.got, c.want, c.tol); got != c.close {
			t.Errorf("Close(%v, %v, %v) = %v, want %v", c.got, c.want, c.tol, got, c.close)
		}
	}
}
