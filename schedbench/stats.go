package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] || math.IsInf(s[hi], 1) {
		return s[hi] // also keeps +Inf (a missed request) from turning into NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail is the highest latency percentile that still has enough samples
// beyond it to be an observation rather than a single outlier.
type tail struct {
	Value      float64 `json:"value"`
	Percentile string  `json:"percentile"`
	Beyond     int     `json:"beyond"` // samples strictly above Value
	N          int     `json:"n"`
}

// minBeyond is the number of samples a tail percentile must have above it.
const minBeyond = 10

// tailPercentiles are tried from the highest down. p75 serves workloads
// whose operations are too slow to collect the hundred samples p90 needs.
var tailPercentiles = []struct {
	name string
	q    float64
}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}, {"p75", 0.75}}

// tailOf picks the highest percentile of xs with at least minBeyond samples
// above it. With too few samples for any of them it reports the maximum,
// labelled "max", so the reader sees that no percentile qualified.
func tailOf(xs []float64) tail {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return tail{Value: math.NaN(), Percentile: "none"}
	}
	for _, p := range tailPercentiles {
		v := sortedQuantile(s, p.q)
		beyond := len(s) - upperBound(s, v)
		if beyond >= minBeyond {
			return tail{Value: v, Percentile: p.name, Beyond: beyond, N: len(s)}
		}
	}
	return tail{Value: s[len(s)-1], Percentile: "max", N: len(s)}
}

// upperBound is the index of the first element of sorted s greater than v.
func upperBound(s []float64, v float64) int {
	i, _ := slices.BinarySearchFunc(s, v, func(e, t float64) int {
		if e <= t {
			return -1
		}
		return 1
	})
	return i
}

var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkName rejects metric and workload names the result format cannot
// carry unambiguously.
func checkName(kind, name string) error {
	if !validName.MatchString(name) {
		return fmt.Errorf("%s name %q is not made of [A-Za-z0-9_.-]", kind, name)
	}
	return nil
}
