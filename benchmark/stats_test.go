package main

import "testing"

func TestStat(t *testing.T) {
	s := newStat("s", []float64{3, 1, 4, 1, 5})
	if s.Median != 3 || s.Min != 1 || s.Max != 5 || s.N != 5 || s.Unit != "s" {
		t.Errorf("odd sample: %+v", s)
	}
	if s := newStat("s", []float64{4, 1, 3, 2}); s.Median != 2.5 || s.N != 4 {
		t.Errorf("even sample: %+v", s)
	}
	if s := newStat("s", nil); s.Median != 0 || s.N != 0 {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestJudge(t *testing.T) {
	at := func(v float64) stat { return stat{Median: v, Min: v, Max: v, N: 1} }
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.25, Clock: clockHost}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, Clock: clockHost}
	sim := metricDef{Name: "sim_time_s", Better: "lower", Bound: 0.01, Clock: clockSim}
	bw := metricDef{Name: "ib.sim_bw_write_1MB_mbps", Better: "higher", Clock: clockSim}
	hostLayer := metricDef{Name: "des.handoff_ns", Better: "lower", Clock: clockHost}
	for _, c := range []struct {
		what     string
		m        metricDef
		endToEnd bool
		a, b     stat
		want     verdict
	}{
		{"inside the bound", wall, true, at(1), at(1.24), same},
		{"past the bound", wall, true, at(1), at(1.26), worse},
		{"faster past the bound", wall, true, at(1), at(0.7), better},
		{"own spread over the bound", wall, true, stat{Median: 1, Min: 0.8, Max: 1.1}, at(1), unresolved},
		{"setup under the absolute floor", setup, true, at(0.004), at(0.04), same},
		{"setup over floor and bound", setup, true, at(1), at(1.3), worse},
		{"setup big enough for the relative bound", setup, true, at(1), at(1.2), same},
		{"simulated time is exact: any growth", sim, true, at(1), at(1.000000001), worse},
		{"simulated time is exact: equal", sim, true, at(1), at(1), same},
		{"simulated time is exact: any fall", sim, true, at(1), at(0.999), better},
		{"higher is better", bw, false, at(838), at(857), better},
		{"host layer rows carry no bound", hostLayer, false, at(60), at(90), info},
	} {
		if got := judge(c.m, c.endToEnd, c.a, c.b); got != c.want {
			t.Errorf("%s: got %v, want %v", c.what, got, c.want)
		}
	}
}
