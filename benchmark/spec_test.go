package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestSpecWithinLimits(t *testing.T) {
	for _, err := range checkSpec() {
		t.Error(err)
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", m)
		}
	}
	for _, l := range profileLayers {
		found := false
		for _, m := range perLayer {
			found = found || m.Name == l+".cpu_share"
		}
		if !found {
			t.Errorf("no %s.cpu_share row in spec.go", l)
		}
	}
}

// BENCHMARK.json at the repository root is spec.go serialised, byte for
// byte, and reads back into the same tables with no key left over.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !bytes.Equal(onDisk, marshalSpec()) {
		t.Error("BENCHMARK.json differs from `mpibench -print-spec`; regenerate it")
	}
	dec := json.NewDecoder(bytes.NewReader(onDisk))
	dec.DisallowUnknownFields()
	var back benchmarkJSON
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != len(workloads) || len(back.EndToEnd) != len(endToEnd) || len(back.PerLayer) != len(perLayer) {
		t.Errorf("read back %d workloads, %d end-to-end, %d per-layer", len(back.Workloads), len(back.EndToEnd), len(back.PerLayer))
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}
}
