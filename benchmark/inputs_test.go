package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		wl, err := buildWorkload(w.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := wl.inputs(7), wl.inputs(7), wl.inputs(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.Name)
		}
		if a.probeLen < probeMin || a.probeLen > probeMax || a.probeLen%8 != 0 {
			t.Errorf("%s: probe length %d", w.Name, a.probeLen)
		}
	}
}

func TestUnitsKeepTheTotals(t *testing.T) {
	in := makeInputs(3, []int{4, 64}, 25, 10)
	total := map[int]int{}
	for _, u := range in.units {
		total[u.size] += u.count
	}
	if total[4] != 25 || total[64] != 25 || len(total) != 2 {
		t.Errorf("units %v do not add up to 25 per size", in.units)
	}
}

func TestPayload(t *testing.T) {
	a, b, c, d := make([]byte, 29), make([]byte, 29), make([]byte, 29), make([]byte, 29)
	payload(a, 1, streamProbe, 5)
	payload(b, 1, streamProbe, 5)
	payload(c, 1, streamProbe, 6)
	payload(d, 2, streamProbe, 5)
	if !bytes.Equal(a, b) {
		t.Error("same stream, different bytes")
	}
	if bytes.Equal(a, c) || bytes.Equal(a, d) {
		t.Error("different streams, same bytes")
	}
	if bytes.Equal(a[21:], make([]byte, 8)) {
		t.Error("tail left unfilled")
	}
}
