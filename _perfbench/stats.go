package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (mean of the two middles for an even
// count), 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the nearest-rank index of the p-th percentile of n samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond is how many of n samples lie strictly above the p-th percentile.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailPercentile is the highest of the candidate tail percentiles that
// still leaves at least ten samples beyond it out of n — the tail a
// benchmark can report without resting on a handful of samples. It falls
// back to the median when n is too small for any of them.
func tailPercentile(n int, candidates ...float64) float64 {
	best := 50.0
	for _, p := range candidates {
		if beyond(n, p) >= 10 && p > best {
			best = p
		}
	}
	return best
}

// ratio is a/b, 0 when b is 0, so idle layers report 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fnv folds values into a 64-bit FNV-1a digest.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(v & 0xff)
		*h *= 1099511628211
		v >>= 8
	}
}

func (h *fnv) addF(f float64) { h.add(math.Float64bits(f)) }

func (h *fnv) addS(s string) {
	for i := 0; i < len(s); i++ {
		*h ^= fnv(s[i])
		*h *= 1099511628211
	}
}

// splitmix is the stateless mixer all generated inputs derive from.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a small deterministic generator for workload inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	v := splitmix(r.s)
	r.s += 0x9e3779b97f4a7c15
	return v
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// sortedCopy returns vals sorted ascending.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
