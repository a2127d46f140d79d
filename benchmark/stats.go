package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of an ascending-sorted sample by the
// nearest-rank method (the server's /stats uses the same rule).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// stddev is the population standard deviation.
func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// tailSlices is how many equal parts of a window the tail percentile
// is computed over.
const tailSlices = 5

// slicedQuantile cuts the samples, in the order they were taken, into
// tailSlices parts, takes the q-quantile of each and returns the median
// of those: one noisy-neighbour burst lands in one slice and cannot set
// the reported tail.
func slicedQuantile(inOrder []float64, q float64) float64 {
	if len(inOrder) < tailSlices*20 {
		return quantile(sortedCopy(inOrder), q)
	}
	per := make([]float64, tailSlices)
	for s := 0; s < tailSlices; s++ {
		part := inOrder[s*len(inOrder)/tailSlices : (s+1)*len(inOrder)/tailSlices]
		per[s] = quantile(sortedCopy(part), q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func toMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// slicedRate is events per second: counted per tailSlices-th of the
// window and reported as the median of those rates.
func slicedRate(atSec []float64, window float64) float64 {
	counts := make([]float64, tailSlices)
	for _, at := range atSec {
		s := int(at / window * tailSlices)
		if s >= 0 && s < tailSlices { // the last operations finish just after the window
			counts[s]++
		}
	}
	return median(counts) / (window / tailSlices)
}
