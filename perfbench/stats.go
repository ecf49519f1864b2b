package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile with fewer beyond it is no tail, so the benchmark runs whole
// rounds until every reported percentile has this many samples beyond it.
const minBeyond = 10

// tailQuantile is the reported tail percentile. On a shared 2-vCPU host
// the p99 of a loopback request loop follows the host's CPU steal (on
// serve-churn it ranged 1.15–2.16 ms over ten seeds as steal ranged
// 0.6–6.1 s per run), beyond any bound a regression gate can hold; p90
// stays inside one.
const tailQuantile = 0.90

// samplesFor returns the smallest sample count that leaves minBeyond
// samples beyond percentile p (0 < p < 1).
func samplesFor(p float64) int {
	return int(math.Ceil(minBeyond / (1 - p) * (1 - 1e-9)))
}

// beyond counts the samples of n that lie strictly past the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentileOK reports whether a percentile over n samples may be
// reported: at least minBeyond samples lie beyond it.
func percentileOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	return max(1, min(n, r))
}

// percentile is the nearest-rank p-th percentile of ds. It fails when
// fewer than minBeyond samples lie beyond it.
func percentile(ds []time.Duration, p float64) (time.Duration, error) {
	if !percentileOK(len(ds), p) {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, want at least %d", p*100, len(ds), beyond(len(ds), p), minBeyond)
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[rank(len(s), p)-1], nil
}

// median is the middle value of xs (the mean of the middle two for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// roundRate is the median over fixed-size rounds of operations per second:
// a seconds-long burst of host steal slows the rounds it overlaps and
// leaves the median where the undisturbed rounds put it.
func roundRate(ops []int, durs []time.Duration) float64 {
	rates := make([]float64, 0, len(ops))
	for i, n := range ops {
		if durs[i] > 0 {
			rates = append(rates, float64(n)/durs[i].Seconds())
		}
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
