package main

import (
	"math"
	"sort"
	"time"
)

const segments = 5 // every window is cut into this many equal slices

// sample is one completed request (or, for update-to-answer, one story
// POST plus the first answer after it).
type sample struct {
	End int64 // completion time, ns since the phase started
	Lat int64 // ns
}

// quantile returns the q-th quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies returns the samples' latencies in µs, sorted.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.Lat) / 1e3
	}
	sort.Float64s(out)
	return out
}

// bySegment splits samples into the phase's equal time slices.
func bySegment(ss []sample, phase time.Duration) [segments][]sample {
	var out [segments][]sample
	for _, s := range ss {
		k := int(s.End * segments / int64(phase))
		if k >= segments {
			k = segments - 1
		}
		out[k] = append(out[k], s)
	}
	return out
}

// timing is a latency quantile over the pooled samples of a phase plus
// the same quantile inside each segment; the spread of the segment
// values is what -compare holds against the metric's bound.
func timing(ss []sample, phase time.Duration, q float64) metric {
	m := metric{Value: quantile(latencies(ss), q), Unit: "us"}
	for _, seg := range bySegment(ss, phase) {
		if len(seg) > 0 {
			m.Segments = append(m.Segments, quantile(latencies(seg), q))
		}
	}
	return m
}

// rate is completions per second over the phase and inside each segment.
func rate(ss []sample, phase time.Duration) metric {
	m := metric{Value: float64(len(ss)) / phase.Seconds(), Unit: "1/s"}
	for _, seg := range bySegment(ss, phase) {
		m.Segments = append(m.Segments, float64(len(seg))*segments/phase.Seconds())
	}
	return m
}

// tail reports the highest percentile with at least ten samples beyond
// it: its latency in µs, the percentile, and the sample count.
func tail(ss []sample) (us, pct float64, n int) {
	lat := latencies(ss)
	n = len(lat)
	if n <= 10 {
		return 0, 0, n
	}
	return lat[n-11], 100 * float64(n-10) / float64(n), n
}

// spread is the interquartile range of a metric's segment values as a
// share of their median — the measure, and the quartile rule (Python's
// statistics.quantiles, exclusive), the driver applies to its ten runs.
// It is 0 for fewer than two values.
func spread(seg []float64) float64 {
	if len(seg) < 2 {
		return 0
	}
	s := append([]float64(nil), seg...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(len(s)+1))/4 - 1 // 0-based position of the k-th quartile
		lo := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	if med := quantile(s, 0.5); med != 0 {
		return (quartile(3) - quartile(1)) / math.Abs(med)
	}
	return 0
}
