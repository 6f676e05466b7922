package ib

import (
	"testing"

	"repro/internal/des"
)

// TestSRQRingStaysBounded: a shared receive queue is refilled as it is
// consumed, so it is never empty — a descriptor buffer that reclaims space
// only when it drains grows by one descriptor per message for the whole run.
// 100 000 post/pop cycles with at most 32 outstanding must fit the buffer 32
// descriptors need, come out in posting order, leave no popped descriptor
// (and the SGL it holds) reachable, and allocate nothing once warm.
func TestSRQRingStaysBounded(t *testing.T) {
	r := newRig(t)
	s := r.hca[0].CreateSRQ(r.pd[0])
	r.eng.Spawn("poster", func(p *des.Proc) {
		sgl := []SGE{{Addr: 1, Len: 64}}
		var posted, popped uint64
		post := func() {
			posted++
			s.PostRecv(p, RecvWR{WRID: posted, SGL: sgl})
		}
		pop := func() {
			popped++
			if wr, ok := s.pop(); !ok || wr.WRID != popped {
				t.Fatalf("pop %d = WRID %d, %v", popped, wr.WRID, ok)
			}
		}
		// The fill level sweeps 1..32 and back so the wrap point lands on
		// every slot, not only on the full-buffer boundary.
		for cycle := 0; popped < 100000; cycle++ {
			level := 1 + cycle%32
			for s.Posted() < level {
				post()
			}
			for s.Posted() >= level {
				pop()
			}
		}
		for s.Posted() < 32 {
			post()
		}
		if allocs := testing.AllocsPerRun(1000, func() { pop(); post() }); allocs != 0 {
			t.Errorf("steady-state post/pop allocates %.1f times per cycle, want 0", allocs)
		}
		if cap(s.rq) > 64 {
			t.Errorf("cap(rq) = %d after %d posts with <= 32 outstanding, want <= 64", cap(s.rq), posted)
		}
		live := 0
		for _, wr := range s.rq {
			if wr.SGL != nil {
				live++
			}
		}
		if live != s.Posted() {
			t.Errorf("%d descriptors still hold their SGL, %d are posted", live, s.Posted())
		}
		for s.Posted() > 0 {
			pop()
		}
		if _, ok := s.pop(); ok {
			t.Error("pop from an empty SRQ succeeded")
		}
	})
	r.eng.Run()
	if st := s.Stats(); st.RecvsPosted != st.RecvsConsumed {
		t.Errorf("posted %d, consumed %d", st.RecvsPosted, st.RecvsConsumed)
	}
}
