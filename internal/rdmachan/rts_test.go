package rdmachan

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/des"
)

// FuzzRTS: decodeRTS never panics, accepts only moves the mover can finish
// — a size, a span, no more stripes than the connection has rails — and
// accepts exactly what encode emits. The seed corpus (testdata/fuzz/FuzzRTS)
// holds the single-rail, striped 2- and 4-rail and resilient forms, and
// truncated, too-many-rails, zero-size and negative-size payloads.
func FuzzRTS(f *testing.F) {
	f.Fuzz(func(t *testing.T, pay []byte, rails int, resilient bool) {
		nRails := 1 + (rails%MaxRails+MaxRails)%MaxRails
		r, err := decodeRTS(pay, nRails, resilient)
		if err != nil {
			return
		}
		if r.size < 1 || r.span < 1 || (r.size-1)/r.span+1 > nRails {
			t.Fatalf("accepted an unfinishable move: size %d, span %d on %d rails", r.size, r.span, nRails)
		}
		var buf [rtsPayloadMax]byte
		if n := r.encode(buf[:], nRails, resilient); !bytes.Equal(buf[:n], pay) {
			t.Fatalf("re-encoding %x gave %x", pay, buf[:n])
		}
	})
}

// TestZeroSizeResilientRTSFails stages a resilient RTS announcing zero bytes
// by hand: the receiver must reject it as corrupt — a move with no stripes
// has no last completion, and the receiver would wait forever for it.
func TestZeroSizeResilientRTSFails(t *testing.T) {
	h := newHarnessMode(t, Config{Design: DesignZeroCopy}, true)
	rb, _ := h.alloc(1, 64)
	h.eng.Spawn("sender", func(p *des.Proc) {
		a := h.eps[0].(*chunkEP)
		var pay [rtsPayloadBase + 8]byte // addr, size 0, span, rail 0's key
		putLE64(pay[0:8], rb.Addr)
		putLE32(pay[16:20], uint32(a.cfg.ChunkSize))
		putLE32(pay[20:24], 0x8000_0001)
		a.stageChunk(a.sendSeq, chunkRTS, pay[:])
		a.postChunk(p, a.sendSeq, len(pay))
		a.sendSeq++
	})
	var err error
	h.eng.Spawn("receiver", func(p *des.Proc) {
		err = GetAll(p, h.eps[1], []Buffer{rb})
	})
	h.eng.Run() // a stalled receiver panics here: des reports the deadlock
	if err == nil || !strings.Contains(err.Error(), "corrupt RTS") {
		t.Fatalf("zero-size RTS: got %v, want a corrupt-RTS error", err)
	}
}
