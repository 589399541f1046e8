package workload

import (
	"fmt"
	"sort"
)

// Point3 is a position in 3-space.
type Point3 struct{ X, Y, Z float64 }

// RCB partitions points into nparts groups by recursive coordinate
// bisection (Berger & Bokhari): the longest dimension is split at the
// median, recursively. nparts must be a power of two. It returns the
// part index of each point; parts differ in size by at most one point
// per split level.
func RCB(points []Point3, nparts int) []int {
	if nparts <= 0 || nparts&(nparts-1) != 0 {
		panic(fmt.Sprintf("workload: RCB nparts %d is not a positive power of two", nparts))
	}
	part := make([]int, len(points))
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	rcbSplit(points, idx, part, 0, nparts)
	return part
}

func rcbSplit(points []Point3, idx, part []int, base, nparts int) {
	if nparts == 1 {
		for _, i := range idx {
			part[i] = base
		}
		return
	}
	// Find the longest extent dimension.
	var min, max Point3
	min = Point3{1e300, 1e300, 1e300}
	max = Point3{-1e300, -1e300, -1e300}
	for _, i := range idx {
		p := points[i]
		min.X, max.X = minf(min.X, p.X), maxf(max.X, p.X)
		min.Y, max.Y = minf(min.Y, p.Y), maxf(max.Y, p.Y)
		min.Z, max.Z = minf(min.Z, p.Z), maxf(max.Z, p.Z)
	}
	dim := 0
	ex, ey, ez := max.X-min.X, max.Y-min.Y, max.Z-min.Z
	if ey > ex && ey >= ez {
		dim = 1
	} else if ez > ex && ez > ey {
		dim = 2
	}
	coord := func(i int) float64 {
		switch dim {
		case 1:
			return points[i].Y
		case 2:
			return points[i].Z
		}
		return points[i].X
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := coord(idx[a]), coord(idx[b])
		if ca != cb {
			return ca < cb
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	mid := len(idx) / 2
	rcbSplit(points, idx[:mid], part, base, nparts/2)
	rcbSplit(points, idx[mid:], part, base+nparts/2, nparts/2)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// partSizes returns the number of items in each of nparts parts.
func partSizes(part []int, nparts int) []int {
	sizes := make([]int, nparts)
	for _, p := range part {
		sizes[p]++
	}
	return sizes
}
