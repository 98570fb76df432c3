package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 over 200 samples would rest on two points, so the
// benchmark reports the highest percentile that keeps ten beyond it.
const minTail = 10

// percentile is one reported latency quantile: the quantile actually
// used (which may be lower than the one asked for), its value and the
// sample count behind it.
type percentile struct {
	Q      float64
	Value  float64
	N      int
	Tenths bool // median of the per-tenth quantiles
}

// rank returns the nearest-rank index of quantile q among n sorted
// samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// reportableQ lowers q, in whole-percent steps, until at least minTail
// samples lie beyond its nearest rank. The median is always reportable;
// below 2*minTail+1 samples nothing higher is.
func reportableQ(n int, q float64) float64 {
	if q <= 0.5 {
		return q
	}
	for pct := math.Round(q * 100); pct > 50; pct-- {
		cand := pct / 100
		if cand > q {
			continue
		}
		if n-1-rank(n, cand) >= minTail {
			return cand
		}
	}
	return 0.5
}

// quantile sorts samples in place and returns the reportable quantile
// nearest to q at or below it. An empty sample set reports NaN.
func quantile(samples []float64, q float64) percentile {
	n := len(samples)
	if n == 0 {
		return percentile{Q: q, Value: math.NaN()}
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	used := reportableQ(n, q)
	return percentile{Q: used, Value: samples[rank(n, used)], N: n}
}

// median returns the middle of samples (the mean of the two middles for
// an even count), sorting in place; NaN when empty.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// numTenths splits a timed phase into tenths; outside marks a sample
// taken outside any timed phase.
const (
	numTenths = 10
	outside   = numTenths
)

// samples are latencies in ns, each tagged with the tenth of its phase
// in which it completed.
type samples struct {
	ns    []int64
	tenth []uint8
}

func (s *samples) add(d time.Duration, tenth uint8) {
	s.ns = append(s.ns, int64(d))
	s.tenth = append(s.tenth, tenth)
}

func (s *samples) merge(o samples) {
	s.ns = append(s.ns, o.ns...)
	s.tenth = append(s.tenth, o.tenth...)
}

// phaseQuantile reports quantile q of s in units of per ns. When every
// tenth of the phase holds enough samples to report q itself, it is the
// median of the ten per-tenth quantiles, so a disturbance confined to a
// tenth or two of the phase (a burst of CPU steal on a shared host, a
// GC storm) does not move it. Otherwise it is the reportable quantile
// of all samples.
func phaseQuantile(s samples, per, q float64) percentile {
	var by [numTenths][]float64
	for i, v := range s.ns {
		if t := s.tenth[i]; t != outside {
			by[t] = append(by[t], float64(v)/per)
		}
	}
	var qs []float64
	for _, b := range by {
		if len(b) == 0 || reportableQ(len(b), q) != q {
			return quantile(nsToFloat(s.ns, per), q)
		}
		qs = append(qs, quantile(b, q).Value)
	}
	return percentile{Q: q, Value: median(qs), N: len(s.ns), Tenths: true}
}

// nsToFloat converts nanosecond samples to float64 in the given unit
// (1e3 for µs, 1e6 for ms).
func nsToFloat(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}
