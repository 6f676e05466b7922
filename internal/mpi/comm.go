package mpi

import "sort"

// Derived communicators. MPICH2's layering argument (paper §2–§3) puts
// communicator bookkeeping entirely above the device: a communicator is a
// member list plus a (p2p, collective) context-id pair, and the transport
// engine's match key — (source, tag, context) — keeps traffic on distinct
// communicators apart even under AnySource/AnyTag wildcards. Dup and
// Split are collective calls: every rank of the parent must make the call
// with the call-site agreeing on the operation order.
//
// Context-id allocation is deterministic and decentralized. Each process
// keeps one monotone counter shared by all of its communicator handles
// (seeded past the world pair). To derive a communicator, the parent's
// members agree on max(counter) via an allgather/allreduce on the parent,
// take the pair (max, max+1), and advance every counter past it. Because
// every member participates, counters can only diverge upward, and the
// max rule re-synchronizes them; two communicators alive in one process
// therefore never share a context id. The sub-communicators of a single
// Split share one pair — their member sets are disjoint, so no engine can
// ever hold traffic from two of them with the same (source, context).

// Group is a communicator's membership: world ranks in communicator rank
// order.
type Group []int

// Size returns the number of members.
func (g Group) Size() int { return len(g) }

// WorldRank returns the world rank of group member r.
func (g Group) WorldRank(r int) int { return g[r] }

// Group returns the communicator's membership.
func (c *Comm) Group() Group {
	g := make(Group, len(c.group))
	for r, w := range c.group {
		g[r] = int(w)
	}
	return g
}

// Dup returns a new communicator with the same members and ranks but a
// fresh context pair: traffic on the duplicate can never match traffic on
// c, even with identical tags and wildcards. Collective over c: the pair
// is an allreduce of the process-local counters on c's own collective
// context, the maximum winning, through Split's two scratch slots, which
// it drops again as Split does.
func (c *Comm) Dup() *Comm {
	send, recv := c.scratch(&c.scr.split, 8), c.scratch(&c.scr.table, 8)
	PutInt64(c.Bytes(send), 0, int64(*c.nextCtx))
	c.Allreduce(send, recv, Int64, Max)
	base := int32(GetInt64(c.Bytes(recv), 0))
	*c.nextCtx = base + 2
	c.scr.split.drop()
	c.scr.table.drop()
	// The member tables are read-only: the duplicate shares c's.
	return &Comm{p: c.p, eng: c.eng, w: c.w, t: c.t, loc: c.loc,
		group: c.group, ident: c.ident, byWorld: c.byWorld, rank: c.rank,
		pt2pt: base, coll: base + 1, nextCtx: c.nextCtx}
}

// Free releases the communicator (MPI_Comm_free): every collective scratch
// slot gives its host backing back (model.Slots.Drop), while its address
// range stays mapped, since the pin-down cache knows it by address. It
// sends nothing and charges no simulated time. As in MPI, the caller's
// operations on c must have completed, and c is not used afterwards.
func (c *Comm) Free() {
	for _, s := range c.scr.slots() {
		s.drop()
	}
}

// Split partitions c into disjoint sub-communicators, one per distinct
// color, ordering each by (key, rank in c). It returns the caller's
// sub-communicator, with topology recomputed over its members so
// hierarchical collectives keep working. A negative color opts out
// (MPI_UNDEFINED): the rank still participates in the agreement but
// receives nil. Collective over c.
func (c *Comm) Split(color, key int) *Comm {
	np := c.Size()

	// One allgather carries (color, key, counter) for every member: the
	// membership of every sub-communicator and the agreed context base.
	send := c.scratch(&c.scr.split, 24)
	recv := c.scratch(&c.scr.table, 24*np)
	sb, rb := c.Bytes(send), c.Bytes(recv)
	PutInt64(sb, 0, int64(color))
	PutInt64(sb, 1, int64(key))
	PutInt64(sb, 2, int64(*c.nextCtx))
	c.Allgather(send, recv)

	base := *c.nextCtx
	type member struct{ key, parent int }
	var members []member
	for r := 0; r < np; r++ {
		if v := int32(GetInt64(rb, r*3+2)); v > base {
			base = v
		}
		if color >= 0 && int(GetInt64(rb, r*3)) == color {
			members = append(members, member{int(GetInt64(rb, r*3+1)), r})
		}
	}
	*c.nextCtx = base + 2
	// The O(np) scratch is call-scoped: it holds host memory only while
	// Split runs, and keeps its address for the next Split's cache hits.
	c.scr.split.drop()
	c.scr.table.drop()
	c.scr.bruck.drop()
	if color < 0 {
		return nil
	}

	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parent < members[j].parent
	})
	group := make([]int32, len(members))
	rank := -1
	for i, m := range members {
		group[i] = c.group[m.parent]
		if m.parent == c.rank {
			rank = i
		}
	}
	return c.derive(group, rank, base, base+1)
}
