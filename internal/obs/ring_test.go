package obs_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRing(t *testing.T) {
	for _, c := range []struct{ cap, adds int }{
		{1, 0}, {1, 1}, {1, 3}, {4, 3}, {4, 4}, {4, 5}, {3, 10},
	} {
		r := obs.NewRing[int](c.cap)
		for i := 0; i < c.adds; i++ {
			r.Add(i)
		}
		// The ring retains the last min(adds, cap) values, oldest first.
		var want []int
		for i := max(0, c.adds-c.cap); i < c.adds; i++ {
			want = append(want, i)
		}
		got := r.Items()
		if !slices.Equal(got, want) {
			t.Errorf("cap %d, %d adds: Items = %v, want %v", c.cap, c.adds, got, want)
		}
		if r.Total() != int64(c.adds) {
			t.Errorf("cap %d, %d adds: Total = %d", c.cap, c.adds, r.Total())
		}
		// Items is a copy: callers (CritRecorder.Edges) sort it in place.
		if len(got) > 0 {
			got[0] = -1
			if r.Items()[0] == -1 {
				t.Errorf("cap %d, %d adds: Items aliases the ring", c.cap, c.adds)
			}
		}
	}
}

func TestRingRejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"NewRing(0)", func() { obs.NewRing[int](0) }},
		{"NewRing(-1)", func() { obs.NewRing[obs.Event](-1) }},
		// The edge ring is built when the recorder is, so a zero edge
		// capacity fails there, not on the first recorded edge.
		{"NewCritRecorder(4, 0)", func() { obs.NewCritRecorder(4, 0) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "obs: non-positive ring capacity") {
					t.Errorf("%s: panic %q, want the ring's capacity panic", c.name, msg)
				}
			}()
			c.build()
		}()
	}
}
