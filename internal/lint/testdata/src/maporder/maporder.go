package fixture

import (
	"fmt"
	"sort"
)

type engine struct{}

func (engine) Send(k int)               {}
func (engine) After(d int64, fn func()) {}

type thread struct{}

func (thread) WakeAt(t int64) {}

func post[T any](v T)             {}
func postPair[K, V any](k K, v V) {}

func hazards(m map[int]float64, e engine, th thread) []int {
	var keys []int
	var total float64
	for k, v := range m {
		keys = append(keys, k) //want maporder
		total += v //want maporder
		e.Send(k) //want maporder
		e.After(int64(k), nil) //want maporder
		th.WakeAt(int64(k)) //want maporder
		post[int](k) //want maporder
		postPair[int, float64](k, v) //want maporder
		fmt.Println(k) //want maporder
	}
	_ = total
	return keys
}

// funcValue calls into the simulation through a func value, which the
// check does not follow (DESIGN.md §10).
func funcValue(m map[int]float64, e engine) {
	after := e.After
	for k := range m {
		after(int64(k), nil)
	}
}

func safeCollect(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func filteredCollect(m map[int]float64) []int32 {
	var keys []int32
	for k, v := range m {
		if v > 0 {
			keys = append(keys, int32(k))
		}
	}
	sortI32(keys)
	return keys
}

func sortI32(s []int32) {
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
}

func orderInsensitive(m map[int]int) int {
	n := 0
	counts := make(map[int]int, len(m))
	for k, v := range m {
		counts[k] = v // disjoint per-key writes are fine
		n += v        // integer accumulation is exact, order-free
	}
	return n + len(counts)
}

func nestedSafeCollect(outer map[string]map[int]bool) map[string][]int {
	names := make([]string, 0, len(outer))
	for name := range outer {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string][]int, len(outer))
	for _, name := range names {
		keys := make([]int, 0, len(outer[name]))
		for k := range outer[name] {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		out[name] = keys
	}
	return out
}

func suppressed(m map[int]float64) []string {
	var out []string
	for k := range m {
		//lint:allow simlint/maporder caller sorts the result before use
		out = append(out, fmt.Sprint(k))
	}
	return out
}
