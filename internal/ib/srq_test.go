package ib

import (
	"bytes"
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

// TestSRQSendBacksOnlyPayload: a 40-byte send into an 8 KB receive
// descriptor over a slotted region (model.AllocSlots) backs one 64-byte
// line of the slot, and registering the region backs nothing. A descriptor
// whose SGE overruns its MR still fails although the payload would fit.
func TestSRQSendBacksOnlyPayload(t *testing.T) {
	for _, overrun := range []bool{false, true} {
		r := newRig(t)
		srq := r.hca[1].CreateSRQ(r.pd[1])
		rcq := r.hca[1].CreateCQ()
		qp := r.hca[1].CreateQPSRQ(r.pd[1], r.hca[1].CreateCQ(), rcq, srq)
		q0 := r.hca[0].CreateQP(r.pd[0], r.scq[0], r.rcq[0])
		if err := Connect(q0, qp); err != nil {
			t.Fatal(err)
		}
		const slot = 8 << 10
		va, _ := r.n[1].Mem.AllocSlots(4, slot)
		var recv, send CQE
		r.eng.Spawn("receiver", func(p *des.Proc) {
			mr, err := r.hca[1].RegisterMR(p, r.pd[1], va, 4*slot, AccessLocalWrite)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.n[1].Mem.Backed(va); got != 0 {
				t.Errorf("RegisterMR backed %d bytes", got)
			}
			sge := SGE{Addr: va + 3*slot, Len: slot, LKey: mr.LKey()}
			if overrun {
				sge.Len++
			}
			srq.PostRecv(p, RecvWR{WRID: 7, SGL: []SGE{sge}})
			recv = rcq.Poll(p)
		})
		r.eng.Spawn("sender", func(p *des.Proc) {
			p.Sleep(des.Microsecond)
			mr, sva, buf := r.reg(t, p, 0, 40)
			fillPattern(buf, 3)
			q0.PostSend(p, SendWR{WRID: 1, Op: OpSend, Signaled: true,
				SGL: []SGE{{Addr: sva, Len: 40, LKey: mr.LKey()}}})
			send = r.scq[0].Poll(p)
		})
		r.eng.Run()
		if overrun {
			if recv.Status != StatusLocalProtErr || send.Status != StatusRemoteAccessErr {
				t.Errorf("overrunning SGE: recv %v, send %v; want local and remote protection errors",
					recv.Status, send.Status)
			}
			continue
		}
		if recv.Status != StatusSuccess || send.Status != StatusSuccess || recv.ByteLen != 40 {
			t.Fatalf("recv %+v, send %+v", recv, send)
		}
		if got := r.n[1].Mem.Backed(va); got != 64 {
			t.Errorf("40-byte send backed %d bytes, want 64", got)
		}
		want := make([]byte, 40)
		fillPattern(want, 3)
		if got := r.n[1].Mem.MustResolve(va+3*slot, 40); !bytes.Equal(got, want) {
			t.Error("payload corrupted")
		}
	}
}
