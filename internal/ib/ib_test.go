package ib

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/model"
)

// rig is a two-node test fixture.
type rig struct {
	eng    *des.Engine
	prm    *model.Params
	fabric *Fabric
	n      [2]*model.Node
	hca    [2]*HCA
	pd     [2]*PD
	scq    [2]*CQ
	rcq    [2]*CQ
	qp     [2]*QP
}

func newRig(t testing.TB) *rig {
	t.Helper()
	r := &rig{eng: des.NewEngine(), prm: model.Testbed()}
	r.fabric = NewFabric(r.eng, r.prm)
	for i := 0; i < 2; i++ {
		r.n[i] = model.NewNode(i, r.prm)
		r.hca[i] = r.fabric.NewHCA(r.n[i])
		r.pd[i] = r.hca[i].AllocPD()
		r.scq[i] = r.hca[i].CreateCQ()
		r.rcq[i] = r.hca[i].CreateCQ()
	}
	r.qp[0] = r.hca[0].CreateQP(r.pd[0], r.scq[0], r.rcq[0])
	r.qp[1] = r.hca[1].CreateQP(r.pd[1], r.scq[1], r.rcq[1])
	if err := Connect(r.qp[0], r.qp[1]); err != nil {
		t.Fatal(err)
	}
	return r
}

// reg allocates and registers n bytes on node i with full access.
func (r *rig) reg(t testing.TB, p *des.Proc, i, n int) (*MR, uint64, []byte) {
	t.Helper()
	va, buf := r.n[i].Mem.Alloc(n)
	mr, err := r.hca[i].RegisterMR(p, r.pd[i], va, n,
		AccessLocalWrite|AccessRemoteWrite|AccessRemoteRead|AccessRemoteAtomic)
	if err != nil {
		t.Fatal(err)
	}
	return mr, va, buf
}

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7)
	}
}

func TestRDMAWriteDeliversBytes(t *testing.T) {
	r := newRig(t)
	var rbuf []byte
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, sbuf := r.reg(t, p, 0, 4096)
		rmr, rva, rb := r.reg(t, p, 1, 4096)
		rbuf = rb
		fillPattern(sbuf, 3)
		r.qp[0].PostSend(p, SendWR{
			WRID: 7, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 4096, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusSuccess || cqe.WRID != 7 || cqe.ByteLen != 4096 {
			t.Errorf("cqe = %+v", cqe)
		}
		if !bytes.Equal(rbuf, sbuf) {
			t.Error("payload mismatch after RDMA write")
		}
	})
	r.eng.Run()
}

func TestRawWriteLatencyMatchesPaper(t *testing.T) {
	// The verbs layer on its own rig; bench's claims table holds the
	// same number as the baseline figure reports it.
	// Paper §4.2.1: raw InfiniBand latency is 5.9 µs. One-way time =
	// post + HCA processing + wire + poll-detect for a small write.
	r := newRig(t)
	var oneWay des.Time
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, sbuf := r.reg(t, p, 0, 64)
		rmr, rva, rbuf := r.reg(t, p, 1, 64)
		start := p.Now()
		sbuf[63] = 0xAB
		r.qp[0].PostSend(p, SendWR{
			Op:         OpRDMAWrite,
			SGL:        []SGE{{Addr: sva, Len: 64, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		r.hca[1].WaitMemory(p, func() bool { return rbuf[63] == 0xAB })
		oneWay = p.Now() - start
	})
	r.eng.Run()
	if math.Abs(oneWay.Micros()-5.9) > 0.3 {
		t.Fatalf("raw one-way latency = %v, want ~5.9µs", oneWay)
	}
}

func TestRawWriteBandwidthMatchesPaper(t *testing.T) {
	// Paper §4.2.1: raw bandwidth is ~870 MB/s for large messages.
	r := newRig(t)
	const size = 1 << 20
	const count = 8
	var rate float64
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, size)
		rmr, rva, _ := r.reg(t, p, 1, size)
		start := p.Now()
		for i := 0; i < count; i++ {
			r.qp[0].PostSend(p, SendWR{
				Op: OpRDMAWrite, Signaled: i == count-1,
				SGL:        []SGE{{Addr: sva, Len: size, LKey: smr.LKey()}},
				RemoteAddr: rva, RKey: rmr.RKey(),
			})
		}
		r.scq[0].Poll(p)
		rate = float64(size*count) / (p.Now() - start).Micros()
	})
	r.eng.Run()
	if math.Abs(rate-870) > 30 {
		t.Fatalf("raw write bandwidth = %.1f MB/s, want ~870", rate)
	}
}

func TestRDMAReadPullsBytes(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("reader", func(p *des.Proc) {
		lmr, lva, lbuf := r.reg(t, p, 0, 1024)
		rmr, rva, rbuf := r.reg(t, p, 1, 1024)
		fillPattern(rbuf, 9)
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpRDMARead, Signaled: true,
			SGL:        []SGE{{Addr: lva, Len: 1024, LKey: lmr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusSuccess {
			t.Errorf("read cqe = %+v", cqe)
		}
		if !bytes.Equal(lbuf, rbuf) {
			t.Error("payload mismatch after RDMA read")
		}
	})
	r.eng.Run()
}

func TestReadBandwidthBelowWriteMidSize(t *testing.T) {
	// Paper Figure 15: RDMA read bandwidth trails RDMA write for mid-size
	// messages because reads serialize on the outstanding-read limit.
	for _, size := range []int{16 << 10, 64 << 10} {
		readRate := measureVerbsBW(t, OpRDMARead, size, 32)
		writeRate := measureVerbsBW(t, OpRDMAWrite, size, 32)
		if readRate >= writeRate {
			t.Errorf("size %d: read %.0f MB/s >= write %.0f MB/s", size, readRate, writeRate)
		}
	}
	// And the gap closes for 1 MB messages.
	readRate := measureVerbsBW(t, OpRDMARead, 1<<20, 8)
	if readRate < 840 {
		t.Errorf("1MB read = %.0f MB/s, want ≥ 840 (gap should close)", readRate)
	}
}

func measureVerbsBW(t *testing.T, op Opcode, size, count int) float64 {
	t.Helper()
	r := newRig(t)
	var rate float64
	r.eng.Spawn("driver", func(p *des.Proc) {
		lmr, lva, _ := r.reg(t, p, 0, size)
		rmr, rva, _ := r.reg(t, p, 1, size)
		start := p.Now()
		for i := 0; i < count; i++ {
			r.qp[0].PostSend(p, SendWR{
				Op: op, Signaled: true,
				SGL:        []SGE{{Addr: lva, Len: size, LKey: lmr.LKey()}},
				RemoteAddr: rva, RKey: rmr.RKey(),
			})
		}
		for i := 0; i < count; i++ {
			r.scq[0].Poll(p)
		}
		rate = float64(size*count) / (p.Now() - start).Micros()
	})
	r.eng.Run()
	return rate
}

func TestSendRecvChannelSemantics(t *testing.T) {
	r := newRig(t)
	done := 0
	r.eng.Spawn("receiver", func(p *des.Proc) {
		mr, va, buf := r.reg(t, p, 1, 256)
		r.qp[1].PostRecv(p, RecvWR{WRID: 11, SGL: []SGE{{Addr: va, Len: 256, LKey: mr.LKey()}}})
		cqe := r.rcq[1].Poll(p)
		if cqe.Status != StatusSuccess || cqe.Op != OpRecv || cqe.WRID != 11 || cqe.ByteLen != 200 {
			t.Errorf("recv cqe = %+v", cqe)
		}
		for i := 0; i < 200; i++ {
			if buf[i] != byte(5+i*7) {
				t.Error("send payload corrupted")
				break
			}
		}
		done++
	})
	r.eng.Spawn("sender", func(p *des.Proc) {
		p.Sleep(des.Microsecond) // let the receiver pre-post
		mr, va, buf := r.reg(t, p, 0, 200)
		fillPattern(buf, 5)
		r.qp[0].PostSend(p, SendWR{
			WRID: 12, Op: OpSend, Signaled: true,
			SGL: []SGE{{Addr: va, Len: 200, LKey: mr.LKey()}},
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusSuccess {
			t.Errorf("send cqe = %+v", cqe)
		}
		done++
	})
	r.eng.Run()
	if done != 2 {
		t.Fatal("both sides should complete")
	}
}

func TestWriteOrderingSameQP(t *testing.T) {
	// RC guarantee: writes become visible at the responder in posted order.
	// Post a large write then a small flag write; when the flag is visible
	// the payload must be complete.
	r := newRig(t)
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, sbuf := r.reg(t, p, 0, 128<<10)
		rmr, rva, rbuf := r.reg(t, p, 1, 128<<10)
		fmr, fva, fbuf := r.reg(t, p, 1, 8)
		_ = fmr
		fillPattern(sbuf, 1)
		r.qp[0].PostSend(p, SendWR{
			Op:         OpRDMAWrite,
			SGL:        []SGE{{Addr: sva, Len: 128 << 10, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		flagSrcMR, flagSrcVA, flagSrc := r.reg(t, p, 0, 8)
		flagSrc[0] = 1
		r.qp[0].PostSend(p, SendWR{
			Op:         OpRDMAWrite,
			SGL:        []SGE{{Addr: flagSrcVA, Len: 8, LKey: flagSrcMR.LKey()}},
			RemoteAddr: fva, RKey: fmr.RKey(),
		})
		r.hca[1].WaitMemory(p, func() bool { return fbuf[0] == 1 })
		if !bytes.Equal(rbuf, sbuf) {
			t.Error("flag visible before payload complete: RC ordering violated")
		}
	})
	r.eng.Run()
}

func TestCompletionOrderWithReads(t *testing.T) {
	// CQEs must appear in posted order even though a read (slow RTT) is
	// followed by a write (fast).
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		lmr, lva, _ := r.reg(t, p, 0, 8192)
		rmr, rva, _ := r.reg(t, p, 1, 8192)
		r.qp[0].PostSend(p, SendWR{
			WRID: 100, Op: OpRDMARead, Signaled: true,
			SGL:        []SGE{{Addr: lva, Len: 8192, LKey: lmr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		r.qp[0].PostSend(p, SendWR{
			WRID: 101, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: lva, Len: 8, LKey: lmr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		first := r.scq[0].Poll(p)
		second := r.scq[0].Poll(p)
		if first.WRID != 100 || second.WRID != 101 {
			t.Errorf("completion order = %d, %d; want 100, 101", first.WRID, second.WRID)
		}
	})
	r.eng.Run()
}

func TestBadRKeyCompletesInErrorAndFlushes(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, 64)
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 64, LKey: smr.LKey()}},
			RemoteAddr: 0xdead, RKey: 0xbeef,
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusRemoteAccessErr {
			t.Errorf("status = %v, want REMOTE_ACCESS_ERR", cqe.Status)
		}
		if r.qp[0].State() != QPError {
			t.Errorf("QP state = %v, want ERROR", r.qp[0].State())
		}
		// Subsequent work requests flush.
		r.qp[0].PostSend(p, SendWR{
			WRID: 2, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 64, LKey: smr.LKey()}},
			RemoteAddr: 0xdead, RKey: 0xbeef,
		})
		cqe = r.scq[0].Poll(p)
		if cqe.Status != StatusWRFlushErr || cqe.WRID != 2 {
			t.Errorf("flush cqe = %+v", cqe)
		}
	})
	r.eng.Run()
}

func TestRemoteWriteRequiresAccessFlag(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, 64)
		// Register remote MR WITHOUT remote-write access.
		va, _ := r.n[1].Mem.Alloc(64)
		rmr, err := r.hca[1].RegisterMR(p, r.pd[1], va, 64, AccessLocalWrite|AccessRemoteRead)
		if err != nil {
			t.Fatal(err)
		}
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 64, LKey: smr.LKey()}},
			RemoteAddr: va, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusRemoteAccessErr {
			t.Errorf("status = %v, want REMOTE_ACCESS_ERR", cqe.Status)
		}
	})
	r.eng.Run()
}

func TestWriteBeyondMRBoundsFails(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, 128)
		rmr, rva, _ := r.reg(t, p, 1, 64)
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 128, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(), // 128 bytes into a 64-byte MR
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusRemoteAccessErr {
			t.Errorf("status = %v, want REMOTE_ACCESS_ERR", cqe.Status)
		}
	})
	r.eng.Run()
}

func TestDeregisteredMRRejected(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, 64)
		rmr, rva, _ := r.reg(t, p, 1, 64)
		if err := r.hca[1].DeregisterMR(p, rmr); err != nil {
			t.Fatal(err)
		}
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 64, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusRemoteAccessErr {
			t.Errorf("status = %v, want REMOTE_ACCESS_ERR after dereg", cqe.Status)
		}
	})
	r.eng.Run()
}

func TestLKeyCannotBeUsedAsRKey(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, 64)
		rmr, rva, _ := r.reg(t, p, 1, 64)
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 64, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.LKey(), // wrong key class
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusRemoteAccessErr {
			t.Errorf("status = %v, want REMOTE_ACCESS_ERR for lkey-as-rkey", cqe.Status)
		}
	})
	r.eng.Run()
}

// TestRKeyCannotBeUsedAsLKey: an rkey names its MR's key-table entry too,
// but never as a local key.
func TestRKeyCannotBeUsedAsLKey(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("sender", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, 64)
		rmr, rva, _ := r.reg(t, p, 1, 64)
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 64, LKey: smr.RKey()}}, // wrong key class
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusLocalProtErr {
			t.Errorf("status = %v, want LOCAL_PROT_ERR for rkey-as-lkey", cqe.Status)
		}
	})
	r.eng.Run()
}

func TestAtomicFetchAdd(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		lmr, lva, lbuf := r.reg(t, p, 0, 8)
		rmr, rva, rbuf := r.reg(t, p, 1, 8)
		writeUint64(rbuf, 40)
		r.qp[0].PostSend(p, SendWR{
			WRID: 1, Op: OpFetchAdd, Signaled: true, Compare: 2,
			SGL:        []SGE{{Addr: lva, Len: 8, LKey: lmr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusSuccess {
			t.Fatalf("fetch-add cqe = %+v", cqe)
		}
		if got := readUint64(lbuf); got != 40 {
			t.Errorf("fetched original = %d, want 40", got)
		}
		if got := readUint64(rbuf); got != 42 {
			t.Errorf("remote value = %d, want 42", got)
		}
	})
	r.eng.Run()
}

func TestAtomicCmpSwap(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		lmr, lva, lbuf := r.reg(t, p, 0, 8)
		rmr, rva, rbuf := r.reg(t, p, 1, 8)
		writeUint64(rbuf, 7)
		// Matching compare swaps.
		r.qp[0].PostSend(p, SendWR{
			Op: OpCmpSwap, Signaled: true, Compare: 7, Swap: 99,
			SGL:        []SGE{{Addr: lva, Len: 8, LKey: lmr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		r.scq[0].Poll(p)
		if readUint64(rbuf) != 99 || readUint64(lbuf) != 7 {
			t.Error("matching cmp-swap misbehaved")
		}
		// Mismatching compare leaves the value and returns the original.
		r.qp[0].PostSend(p, SendWR{
			Op: OpCmpSwap, Signaled: true, Compare: 7, Swap: 1,
			SGL:        []SGE{{Addr: lva, Len: 8, LKey: lmr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		r.scq[0].Poll(p)
		if readUint64(rbuf) != 99 || readUint64(lbuf) != 99 {
			t.Error("mismatching cmp-swap misbehaved")
		}
	})
	r.eng.Run()
}

func TestGatherScatterMultiSGE(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		aMR, aVA, a := r.reg(t, p, 0, 100)
		bMR, bVA, b := r.reg(t, p, 0, 50)
		fillPattern(a, 1)
		fillPattern(b, 77)
		rmr, rva, rbuf := r.reg(t, p, 1, 150)
		r.qp[0].PostSend(p, SendWR{
			Op: OpRDMAWrite, Signaled: true,
			SGL: []SGE{
				{Addr: aVA, Len: 100, LKey: aMR.LKey()},
				{Addr: bVA, Len: 50, LKey: bMR.LKey()},
			},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusSuccess || cqe.ByteLen != 150 {
			t.Fatalf("cqe = %+v", cqe)
		}
		if !bytes.Equal(rbuf[:100], a) || !bytes.Equal(rbuf[100:], b) {
			t.Error("gathered payload mismatch")
		}
	})
	r.eng.Run()
}

func TestZeroLengthWriteCompletes(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		rmr, rva, _ := r.reg(t, p, 1, 64)
		r.qp[0].PostSend(p, SendWR{
			WRID: 5, Op: OpRDMAWrite, Signaled: true,
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		cqe := r.scq[0].Poll(p)
		if cqe.Status != StatusSuccess || cqe.ByteLen != 0 {
			t.Errorf("cqe = %+v", cqe)
		}
	})
	r.eng.Run()
}

func TestPostBeforeConnectFlushes(t *testing.T) {
	eng := des.NewEngine()
	prm := model.Testbed()
	f := NewFabric(eng, prm)
	n := model.NewNode(0, prm)
	h := f.NewHCA(n)
	pd := h.AllocPD()
	cq := h.CreateCQ()
	qp := h.CreateQP(pd, cq, cq)
	eng.Spawn("driver", func(p *des.Proc) {
		qp.PostSend(p, SendWR{WRID: 9, Op: OpRDMAWrite, Signaled: true})
		cqe := cq.Poll(p)
		if cqe.Status != StatusWRFlushErr {
			t.Errorf("status = %v, want WR_FLUSH_ERR", cqe.Status)
		}
	})
	eng.Run()
}

func TestConnectValidation(t *testing.T) {
	r := newRig(t)
	if err := Connect(r.qp[0], r.qp[1]); err == nil {
		t.Fatal("reconnecting RTS QPs should fail")
	}
	h := r.hca[0]
	q1 := h.CreateQP(r.pd[0], r.scq[0], r.rcq[0])
	q2 := h.CreateQP(r.pd[0], r.scq[0], r.rcq[0])
	if err := Connect(q1, q2); err == nil {
		t.Fatal("loopback connect should fail")
	}
	r.eng.RunUntil(des.Microsecond) // drain spawned engines' startup
}

func TestRegisterUnmappedRangeFails(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		if _, err := r.hca[0].RegisterMR(p, r.pd[0], 0x1, 64, AccessLocalWrite); err == nil {
			t.Error("registering unmapped memory should fail")
		}
	})
	r.eng.Run()
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		smr, sva, _ := r.reg(t, p, 0, 4096)
		rmr, rva, _ := r.reg(t, p, 1, 4096)
		r.qp[0].PostSend(p, SendWR{
			Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 4096, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		r.scq[0].Poll(p)
	})
	r.eng.Run()
	if s := r.qp[0].Stats(); s.SendsPosted != 1 || s.BytesSent != 4096 {
		t.Errorf("qp stats = %+v", s)
	}
	if s := r.hca[0].Stats(); s.BytesInjected != 4096 || s.MRsRegistered != 1 {
		t.Errorf("hca0 stats = %+v", s)
	}
	if s := r.hca[1].Stats(); s.BytesDelivered != 4096 {
		t.Errorf("hca1 stats = %+v", s)
	}
}

func TestOpcodeStatusStrings(t *testing.T) {
	if OpRDMAWrite.String() != "RDMA_WRITE" || StatusWRFlushErr.String() != "WR_FLUSH_ERR" {
		t.Fatal("string methods broken")
	}
	if QPReadyToSend.String() != "RTS" {
		t.Fatal("QPState string broken")
	}
}
