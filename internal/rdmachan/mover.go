package rdmachan

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/ib"
)

// Mover is the one stripe engine under both zero-copy designs (DESIGN.md
// §10–§11): the channel's RDMA-read pull (chunkEP) and the CH3 design's
// RDMA-write push (internal/ch3) post, count and re-issue payload stripes
// through it. A move deals Unit-byte stripes round-robin over its candidate
// rails. A counted stripe is signaled and carries a routed work-request ID
// (the Mover's class | its slot in a recycled record table), so its
// completion comes back through the rail set's router. A failed one — it
// definitively did not land — evicts its rail and, on a resilient rail set,
// is re-posted on the first live rail the peer gave a key for; the last
// completion calls the move's owner back.
type Mover struct {
	rails     StripeRails
	resilient bool
	class     uint64 // WRID class from rails.OnCQE; 0 until the first counted stripe

	moves       []moveRec // moves with counted stripes in flight, by slot
	stripes     []stripeRec
	freeMoves   []int32
	freeStripes []int32
	reissues    uint64
}

// StripeRails is the rail set a Mover posts on: RawAccess for a chunk-ring
// connection, a one-rail view of an SRQ connection.
type StripeRails interface {
	RailQP(k int) *ib.QP
	RailAlive(k int) bool
	EvictRail(k int)
	OnCQE(fn func(p *des.Proc, cqe ib.CQE)) uint64
}

// MoveOwner is the caller's side of a move.
type MoveOwner interface {
	// StripeLKey returns the local key covering [addr, addr+n) on rail k —
	// registering it now, or a registration made before the move was
	// posted: the caller's policy either way.
	StripeLKey(p *des.Proc, k int, addr uint64, n int) (uint32, error)

	// MoveDone runs once per counted move: at its last completion with err
	// nil, or at the first stripe that failed beyond re-issue.
	MoveDone(p *des.Proc, err error)
}

// Move is one payload move for Mover.Post.
type Move struct {
	Op            ib.Opcode // ib.OpRDMARead pulls, ib.OpRDMAWrite pushes
	Local, Remote uint64    // the payload's base here and at the peer
	Size          int
	Keys          [MaxRails]uint32 // the peer's rkey per rail; 0 = not offered
	Rails         []int            // candidate rails, in dealing order
	Unit          int              // stripe i: [i·Unit, (i+1)·Unit) ∩ [0, Size) on Rails[i mod len]
	Counted       bool             // signaled and recorded; else unsignaled, WRID 0
	Owner         MoveOwner
}

type moveRec struct {
	owner         MoveOwner
	op            ib.Opcode
	local, remote uint64
	keys          [MaxRails]uint32
	pending       int  // stripes not yet completed
	failed        bool // MoveDone already ran with an error
}

type stripeRec struct {
	move           int32 // -1: slot free
	rail, off, blk int
}

// NewMover returns a Mover over rails; resilient enables re-issue.
func NewMover(rails StripeRails, resilient bool) Mover {
	return Mover{rails: rails, resilient: resilient}
}

// InFlight reports the counted stripes posted and not yet completed.
func (m *Mover) InFlight() int { return len(m.stripes) - len(m.freeStripes) }

// Reissues reports the stripes re-posted on a surviving rail.
func (m *Mover) Reissues() uint64 { return m.reissues }

// Detach forgets the WRID class: the rail set completes into a new router.
func (m *Mover) Detach() { m.class = 0 }

// Post starts mv, posting every stripe before it returns.
func (m *Mover) Post(p *des.Proc, mv *Move) error {
	if mv.Size < 1 || mv.Unit < 1 || len(mv.Rails) == 0 {
		return fmt.Errorf("rdmachan: move of %d bytes in %d-byte stripes over %d rails",
			mv.Size, mv.Unit, len(mv.Rails))
	}
	rec, mi := &moveRec{owner: mv.Owner, op: mv.Op, local: mv.Local, remote: mv.Remote}, int32(-1)
	for _, k := range mv.Rails {
		rec.keys[k] = mv.Keys[k] // a re-issue picks among the candidates only
	}
	if mv.Counted {
		if m.class == 0 {
			m.class = m.rails.OnCQE(m.complete)
		}
		mi = take(&m.moves, &m.freeMoves)
		m.moves[mi] = *rec
		rec = &m.moves[mi]
	}
	for i, off := 0, 0; off < mv.Size; i, off = i+1, off+mv.Unit {
		s, wrid := stripeRec{mi, mv.Rails[i%len(mv.Rails)], off, min(mv.Unit, mv.Size-off)}, uint64(0)
		if mv.Counted {
			rec.pending++
			si := take(&m.stripes, &m.freeStripes)
			m.stripes[si], wrid = s, m.class|uint64(si)
		}
		if err := m.post(p, rec, s, wrid); err != nil {
			return err
		}
	}
	return nil
}

// post posts stripe s of move mv on its rail; wrid 0 posts it unsignaled.
func (m *Mover) post(p *des.Proc, mv *moveRec, s stripeRec, wrid uint64) error {
	addr := mv.local + uint64(s.off)
	lkey, err := mv.owner.StripeLKey(p, s.rail, addr, s.blk)
	if err == nil {
		m.rails.RailQP(s.rail).PostSend(p, ib.SendWR{
			WRID: wrid, Op: mv.op, Signaled: wrid != 0,
			SGL:        []ib.SGE{{Addr: addr, Len: s.blk, LKey: lkey}},
			RemoteAddr: mv.remote + uint64(s.off), RKey: mv.keys[s.rail],
		})
	}
	return err
}

// complete reaps one counted stripe, from the rail set's router.
func (m *Mover) complete(p *des.Proc, cqe ib.CQE) {
	si := int(cqe.WRID & WRIDTagMask)
	if si >= len(m.stripes) || m.stripes[si].move < 0 {
		panic(fmt.Sprintf("rdmachan: completion %#x for no stripe in flight", cqe.WRID))
	}
	s := &m.stripes[si]
	mv := &m.moves[s.move]
	var err error
	if cqe.Status != ib.StatusSuccess {
		err = fmt.Errorf("rdmachan: %v stripe on rail %d: %v", mv.op, s.rail, cqe.Status)
		if m.resilient {
			m.rails.EvictRail(s.rail)
			err = fmt.Errorf("rdmachan: no surviving rail for the %v stripe at %d", mv.op, s.off)
			for k, key := range mv.keys {
				if key != 0 && m.rails.RailAlive(k) {
					s.rail = k
					if err = m.post(p, mv, *s, cqe.WRID); err == nil {
						m.reissues++
						return
					}
					break
				}
			}
		}
	}
	mi, owner, report := s.move, mv.owner, !mv.failed && (err != nil || mv.pending == 1)
	s.move, mv.failed = -1, mv.failed || err != nil
	m.freeStripes = append(m.freeStripes, int32(si))
	if mv.pending--; mv.pending == 0 {
		*mv = moveRec{}
		m.freeMoves = append(m.freeMoves, mi)
	}
	if report {
		owner.MoveDone(p, err)
	}
}

// take returns a free slot of tab, growing it when none is.
func take[T any](tab *[]T, free *[]int32) int32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		return i
	}
	*tab = append(*tab, *new(T))
	return int32(len(*tab) - 1)
}
