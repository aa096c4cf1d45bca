package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks, the numpy default. It returns 0
// for an empty slice and leaves xs unmodified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailReportable reports whether the p-quantile of xs has at least
// minBeyond samples beyond it, the rule for printing a tail percentile.
func tailReportable(xs []float64, p float64) bool {
	return beyond(xs, percentile(xs, p)) >= minBeyond
}

// gflopsRate is Σ flops ÷ Σ seconds in units of 10⁹ FLOP/s: the rate of
// a set of timed passes weighted by their work, not a mean of per-pass
// rates. It returns 0 when no time was measured.
func gflopsRate(flops, secs []float64) float64 {
	t := sum(secs)
	if t <= 0 {
		return 0
	}
	return sum(flops) / t / 1e9
}

// gbPerSecond is bytes ÷ seconds in units of 10⁹ B/s; 0 when no time
// was measured.
func gbPerSecond(bytes, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return bytes / secs / 1e9
}

// flopPerByte is the arithmetic intensity F / (4·(I+O+W)) of float32
// tensors: every input, output and weight element is moved once.
func flopPerByte(flops, inElems, outElems, weights float64) float64 {
	bytes := 4 * (inElems + outElems + weights)
	if bytes <= 0 {
		return 0
	}
	return flops / bytes
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratioOrZero is a/b, or 0 when b is not positive.
func ratioOrZero(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
