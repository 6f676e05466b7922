package ch3

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// Packet kinds carried in CH3 packet headers.
const (
	pktEager byte = 1
	pktRTS   byte = 2
	pktCTS   byte = 3
	pktFIN   byte = 4
)

// hdrSize is the fixed CH3 packet header size.
const hdrSize = 64

// header is the wire form of a CH3 packet. A multi-rail CTS advertises one
// rkey per rail (nRails > 1); the header is fixed-size either way, so the
// single-rail wire format and its timing are untouched.
type header struct {
	kind   byte
	nRails byte // CTS: rails the receive buffer is registered on (0 ≡ 1)
	env    transport.Envelope
	reqID  uint64
	raddr  uint64
	rkeys  [maxHdrRails]uint32 // rkeys[0] is the historical single rkey
	seq    uint64              // re-dialing carrier: the packet's place in its stream (0 = none)
}

// maxHdrRails is the rail count the fixed CTS header has rkey room for —
// the same bound the channel layer enforces on connections, so the two
// limits cannot drift apart. 4 rkeys end at byte 56 of the 64-byte header
// and seq fills the rest; raising rdmachan.MaxRails would need a wider one.
const maxHdrRails = rdmachan.MaxRails

var le = binary.LittleEndian

func encodeHeader(dst []byte, h header) {
	dst[0] = h.kind
	dst[1] = h.nRails
	le.PutUint32(dst[4:8], uint32(h.env.Src))
	le.PutUint32(dst[8:12], uint32(h.env.Tag))
	le.PutUint32(dst[12:16], uint32(h.env.Ctx))
	le.PutUint64(dst[16:24], uint64(h.env.Len))
	le.PutUint64(dst[24:32], h.reqID)
	le.PutUint64(dst[32:40], h.raddr)
	for k := 0; k < maxHdrRails; k++ {
		le.PutUint32(dst[40+4*k:44+4*k], h.rkeys[k])
	}
	le.PutUint64(dst[56:64], h.seq)
}

func decodeHeader(src []byte) header {
	h := header{
		kind:   src[0],
		nRails: src[1],
		env: transport.Envelope{
			Src: int32(le.Uint32(src[4:8])),
			Tag: int32(le.Uint32(src[8:12])),
			Ctx: int32(le.Uint32(src[12:16])),
			Len: int(le.Uint64(src[16:24])),
		},
		reqID: le.Uint64(src[24:32]),
		raddr: le.Uint64(src[32:40]),
		seq:   le.Uint64(src[56:64]),
	}
	for k := 0; k < maxHdrRails; k++ {
		h.rkeys[k] = le.Uint32(src[40+4*k : 44+4*k])
	}
	return h
}

// check validates a decoded header, the one gate every arriving packet
// passes before dispatch: a known kind, one this mode of the engine takes
// (over-channel mode frames everything eagerly), a length the packet can
// hold — avail is the bytes that follow the header in a message carrier's
// packet, negative on a byte pipe — and, in a CTS, no more rails than the
// connection has, so no peer-supplied count ever indexes a rail.
func (h header) check(threshold, nRails, avail int) error {
	switch {
	case h.kind < pktEager || h.kind > pktFIN:
		return errf("bad packet kind %d", h.kind)
	case threshold == 0 && h.kind != pktEager:
		return errf("unexpected packet kind %d on channel pipe", h.kind)
	case h.env.Len < 0:
		return errf("packet kind %d with negative length", h.kind)
	case h.kind == pktEager && threshold > 0 && h.env.Len >= threshold:
		return errf("eager packet of %d bytes at rendezvous threshold %d", h.env.Len, threshold)
	case h.kind == pktEager && avail >= 0 && h.env.Len > avail:
		return errf("eager packet claims %d bytes, carries %d", h.env.Len, avail)
	case h.kind == pktCTS && int(h.nRails) > nRails:
		return errf("CTS advertises %d rails, connection has %d", h.nRails, nRails)
	}
	return nil
}

func errf(format string, args ...interface{}) error {
	return fmt.Errorf("ch3: "+format, args...)
}
