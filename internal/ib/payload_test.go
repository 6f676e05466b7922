package ib

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/des"
)

// TestInlinePayloadKeepsGatherTimeValue pins the inline semantics the
// counter writers of rdmachan and the rdma-direct collectives rely on: an
// 8-byte source rewritten after the engine gathered the work request, but
// before the write is delivered, still lands the value it had at gather
// time.
func TestInlinePayloadKeepsGatherTimeValue(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		smr, sva, sbuf := r.reg(t, p, 0, 8)
		rmr, rva, rbuf := r.reg(t, p, 1, 8)
		writeUint64(sbuf, 41)
		r.qp[0].PostSend(p, SendWR{
			Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 8, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		// The engine gathers one HCAProc after the post; delivery is at
		// least a wire latency later.
		p.Sleep(r.prm.HCAProc + des.Nanosecond)
		writeUint64(sbuf, 42)
		if got := readUint64(rbuf); got != 0 {
			t.Fatalf("write delivered before the rewrite (value %d): the test no longer probes the window", got)
		}
		if cqe := r.scq[0].Poll(p); cqe.Status != StatusSuccess {
			t.Fatalf("cqe = %+v", cqe)
		}
		if got := readUint64(rbuf); got != 41 {
			t.Errorf("delivered %d, want the gather-time value 41", got)
		}
	})
	r.eng.Run()
}

// sgeSplit registers n bytes on node i and returns them as a scatter/gather
// list cut at the given uneven fractions, plus the backing bytes.
func (r *rig) sgeSplit(t *testing.T, p *des.Proc, i, n int, cuts ...int) ([]SGE, []byte) {
	t.Helper()
	mr, va, buf := r.reg(t, p, i, n)
	var sgl []SGE
	off := 0
	for _, c := range append(cuts, n) {
		if c > n {
			c = n
		}
		sgl = append(sgl, SGE{Addr: va + uint64(off), Len: c - off, LKey: mr.LKey()})
		off = c
	}
	return sgl, buf
}

// TestMultiSGEByteExact moves payloads between segment lists that split at
// different, uneven boundaries — three source segments, two destination
// segments — through every data path, at the sizes either side of the
// inline limit and at a multi-granule size.
func TestMultiSGEByteExact(t *testing.T) {
	for _, n := range []int{inlineMax, inlineMax + 1, 1000, 40000} {
		n := n
		t.Run(fmt.Sprintf("%dB", n), func(t *testing.T) {
			r := newRig(t)
			r.eng.Spawn("driver", func(p *des.Proc) {
				// 3-way and 2-way cuts that never coincide.
				src3 := []int{n / 7, n/7 + n/3}
				dst2 := []int{n/2 + 3}

				// RDMA write: 3-SGE gather into a contiguous window.
				sgl, src := r.sgeSplit(t, p, 0, n, src3...)
				fillPattern(src, 3)
				rmr, rva, win := r.reg(t, p, 1, n)
				r.qp[0].PostSend(p, SendWR{Op: OpRDMAWrite, Signaled: true, SGL: sgl,
					RemoteAddr: rva, RKey: rmr.RKey()})
				if cqe := r.scq[0].Poll(p); cqe.Status != StatusSuccess || cqe.ByteLen != n {
					t.Fatalf("write cqe = %+v", cqe)
				}
				if !bytes.Equal(win, src) {
					t.Error("write: payload mismatch")
				}

				// Send: 3-SGE gather into a 2-SGE receive.
				rsgl, rbuf := r.sgeSplit(t, p, 1, n, dst2...)
				fillPattern(src, 5)
				r.qp[1].PostRecv(p, RecvWR{WRID: 7, SGL: rsgl})
				r.qp[0].PostSend(p, SendWR{Op: OpSend, Signaled: true, SGL: sgl})
				if cqe := r.rcq[1].Poll(p); cqe.Status != StatusSuccess || cqe.ByteLen != n {
					t.Fatalf("recv cqe = %+v", cqe)
				}
				if !bytes.Equal(rbuf, src) {
					t.Error("send: payload mismatch")
				}
				r.scq[0].Poll(p)

				// RDMA read: contiguous remote range into a 2-SGE scatter.
				lsgl, lbuf := r.sgeSplit(t, p, 0, n, dst2...)
				fillPattern(win, 9)
				r.qp[0].PostSend(p, SendWR{Op: OpRDMARead, Signaled: true, SGL: lsgl,
					RemoteAddr: rva, RKey: rmr.RKey()})
				if cqe := r.scq[0].Poll(p); cqe.Status != StatusSuccess || cqe.ByteLen != n {
					t.Fatalf("read cqe = %+v", cqe)
				}
				if !bytes.Equal(lbuf, win) {
					t.Error("read: payload mismatch")
				}
			})
			r.eng.Run()
		})
	}
}

// verbsLoop is the 1 MB steady-state driver shared by the allocation test
// and the microbenchmarks: it posts op between two registered 1 MB buffers
// and waits for each completion, calling measure(run) once the free lists
// and queues are warm.
func verbsLoop(tb testing.TB, op Opcode, measure func(run func(n int))) {
	const size = 1 << 20
	r := newRig(tb)
	r.eng.Spawn("driver", func(p *des.Proc) {
		lmr, lva, lbuf := r.reg(tb, p, 0, size)
		rmr, rva, _ := r.reg(tb, p, 1, size)
		fillPattern(lbuf, 1)
		sgl := []SGE{{Addr: lva, Len: size, LKey: lmr.LKey()}}
		run := func(n int) {
			for i := 0; i < n; i++ {
				r.qp[0].PostSend(p, SendWR{Op: op, Signaled: true, SGL: sgl,
					RemoteAddr: rva, RKey: rmr.RKey()})
				if cqe := r.scq[0].Poll(p); cqe.Status != StatusSuccess {
					tb.Fatalf("cqe = %+v", cqe)
				}
			}
		}
		run(4)
		measure(run)
	})
	r.eng.Run()
}

func benchmarkVerbs1MB(b *testing.B, op Opcode) {
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	verbsLoop(b, op, func(run func(int)) {
		b.ResetTimer()
		run(b.N)
		b.StopTimer()
	})
}

// BenchmarkRDMAWrite1MB and BenchmarkRDMARead1MB measure the host cost of
// moving 1 MB through the verbs data path; CI holds them, like
// TestLargeTransferAllocatesNothing, to 0 allocs/op.
func BenchmarkRDMAWrite1MB(b *testing.B) { benchmarkVerbs1MB(b, OpRDMAWrite) }
func BenchmarkRDMARead1MB(b *testing.B)  { benchmarkVerbs1MB(b, OpRDMARead) }
