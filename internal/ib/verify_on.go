//go:build ibverify

package ib

import (
	"bytes"
	"fmt"
)

// snapshot machine-checks the ownership rule the zero-copy data path rests
// on: built with -tags ibverify, every payload left in place (larger than
// inlineMax) is also copied at gather time, and delivery panics if the
// source no longer holds those bytes — some layer above rewrote a posted
// buffer before its completion.
type snapshot struct{ b []byte }

func (s *snapshot) take(src [][]byte) {
	s.b = s.b[:0]
	for _, seg := range src {
		s.b = append(s.b, seg...)
	}
}

func (s *snapshot) check(w *sendWork) {
	if w.n <= inlineMax {
		return
	}
	off := 0
	for _, seg := range w.src {
		if !bytes.Equal(seg, s.b[off:off+len(seg)]) {
			panic(fmt.Sprintf("ib: qp%d wrid %d %s: source of a posted buffer changed between gather and delivery",
				w.qp.num, w.wr.WRID, w.wr.Op))
		}
		off += len(seg)
	}
}
