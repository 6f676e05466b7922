package main

import (
	"math"
	"os"
	"testing"
)

// The sample is the CPU profile of one traced `-quick -workload smp_shm`
// run; the expected shares are what `go tool pprof -top` gives for it,
// summed by package.
func TestCPUSharesOnSample(t *testing.T) {
	raw, err := os.ReadFile("testdata/smp_shm_quick.pprof")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpuShares(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"goruntime": 0.5664, "des": 0.2389, "rdmachan": 0.1327, "ch3": 0.0177,
		"transport": 0.0177, "adi3": 0.0088, "ib": 0.0088, "model": 0.0088}
	total := 0.0
	for _, l := range profileLayers {
		total += got[l]
		if math.Abs(got[l]-want[l]) > 0.00006 {
			t.Errorf("%s: share %.4f, want %.4f", l, got[l], want[l])
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/des.(*Engine).runOn":            "des",
		"repro/internal/rdmachan.(*chunkEP).Get":        "rdmachan",
		"repro/internal/mpi.(*Comm).Allreduce":          "mpi",
		"repro/internal/bench.MeasureEngine":            "goruntime", // not a layer of the stack
		"runtime.memmove":                               "goruntime",
		"main.payload":                                  "goruntime",
		"repro/internal/des.(*Queue[go.shape.int]).Put": "des",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
