package main

import (
	"math"
	"sort"
)

// stat is how every metric is reported: the median of its samples with the
// minimum, the maximum and the sample count.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func newStat(unit string, samples []float64) stat {
	s := stat{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	s.Median, s.Min, s.Max = median(samples), samples[0], samples[0]
	for _, v := range samples {
		s.Min, s.Max = math.Min(s.Min, v), math.Max(s.Max, v)
	}
	return s
}

// median returns the middle sample (the mean of the two middle ones for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// verdict is the comparator's judgement of one metric on one workload.
type verdict int

const (
	same       verdict = iota // within the bound
	better                    // moved the good way by more than the bound
	worse                     // moved the bad way by more than the bound
	unresolved                // the run's own spread exceeds the bound
	info                      // a host per-layer number: no bound, shown only
)

func (v verdict) String() string {
	return [...]string{"ok", "better", "WORSE", "unresolved", "info"}[v]
}

// judge compares metric m's value in run b against run a. Exact metrics
// (simulated clock, counts) allow no movement at all; end-to-end host
// metrics allow their bound, with setup_s's absolute floor; a host metric
// whose own min–max spread in either run exceeds the allowance cannot be
// resolved by a single pair of runs.
func judge(m metricDef, endToEnd bool, a, b stat) verdict {
	if m.Clock.exact() {
		switch {
		case a.Median == b.Median:
			return same
		case (b.Median < a.Median) == (m.Better == "lower"):
			return better
		}
		return worse
	}
	if !endToEnd {
		return info
	}
	allow := m.Bound * math.Abs(a.Median)
	if m.Name == "setup_s" {
		allow = math.Max(allow, setupFloorS)
	}
	if a.Max-a.Min > allow || b.Max-b.Min > allow {
		return unresolved
	}
	delta := b.Median - a.Median
	if m.Better == "higher" {
		delta = -delta
	}
	switch {
	case delta > allow:
		return worse
	case delta < -allow:
		return better
	}
	return same
}
