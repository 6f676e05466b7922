package main

import (
	"math"
	"testing"
)

// The scale a timed region gets is the nominal duration over the mean of the
// reference samples on either side of it, and every sample is kept.
func TestHostRefScale(t *testing.T) {
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.close(); err != nil {
			t.Error(err)
		}
	}()
	if len(h.all) != 1 || h.all[0] <= 0 {
		t.Fatalf("a new reference holds %v, want one positive sample", h.all)
	}
	before := h.all[0]
	scale := h.scale()
	if len(h.all) != 2 {
		t.Fatalf("scale took %d samples, want 1", len(h.all)-1)
	}
	if want := refNominalS / ((before + h.all[1]) / 2); math.Abs(scale-want) > 1e-12 {
		t.Errorf("scale = %g, want %g", scale, want)
	}
	// The chase must not have fallen into a short loop: one cycle through
	// every slot comes back to the start after exactly len(ring) steps.
	at, steps := uint32(0), 0
	for {
		at, steps = h.ring[at], steps+1
		if at == 0 || steps > len(h.ring) {
			break
		}
	}
	if steps != len(h.ring) {
		t.Errorf("the ring's cycle through slot 0 has %d steps, want %d", steps, len(h.ring))
	}
}
