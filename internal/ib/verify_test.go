//go:build invariants

package ib

import (
	"strings"
	"testing"

	"repro/internal/des"
)

// TestVerifyCatchesRewrittenPostedBuffer: a payload too large to go inline
// belongs to the adapter until its completion; rewriting it first is the
// bug the invariants build exists to catch, named by QP, WRID and opcode.
func TestVerifyCatchesRewrittenPostedBuffer(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("driver", func(p *des.Proc) {
		smr, sva, sbuf := r.reg(t, p, 0, 4096)
		rmr, rva, _ := r.reg(t, p, 1, 4096)
		r.qp[0].PostSend(p, SendWR{
			WRID: 77, Op: OpRDMAWrite, Signaled: true,
			SGL:        []SGE{{Addr: sva, Len: 4096, LKey: smr.LKey()}},
			RemoteAddr: rva, RKey: rmr.RKey(),
		})
		p.Sleep(r.prm.HCAProc + des.Nanosecond) // gathered, not yet delivered
		sbuf[100] ^= 0xff
		r.scq[0].Poll(p)
	})
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"qp1", "wrid 77", "RDMA_WRITE", "changed between gather and delivery"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	r.eng.Run()
}
