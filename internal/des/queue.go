package des

// The engine's pending-event set is one implicit 4-ary min-heap over the
// exact (at, key, seq) total order. Its entries are 32-byte values with no
// pointers in them, so a sift moves plain words under no write barrier; what
// an event runs lives in a slot table beside the heap, reached through the
// entry's slot index and recycled through a free list. The populations the
// simulation keeps pending are small or land on one instant — about two
// events at a pop on a ping-pong, 8 to 86 on the NAS kernels and the
// collectives, a same-instant burst at scale (DESIGN.md §12 has the table)
// — so a heap a few levels deep beats a calendar's day sweep. Engine
// holds it by value and calls it directly; queue_test.go checks it against
// a brute-force oracle that scans for the minimum.

// event is a popped occurrence, as dispatch sees it. Events with equal times
// fire in lineage key order (see engine.go: a key is a hash of the scheduling
// event's key and a per-dispatch child counter), with the engine-local
// scheduling sequence as the final tiebreak. The key order is a pure function
// of the simulation's causal structure, so it is identical whether the engine
// runs alone or as one shard of a Group — that is what makes sharded dispatch
// bit-identical to serial. An event runs h.Handle(arg): a plain closure
// (Func) or a handler carrying its argument. The wakeup of a process or task
// is the exception: h is its *wake and arg the pause generation it targets,
// dispatch (Engine.fire) resumes it directly if that generation is still
// current, with no per-wakeup closure allocation, and chain marks the wake of
// a SleepChain (chain.go).
type event struct {
	at    Time
	key   uint64
	h     Handler
	arg   uint64
	chain bool
}

// Handler is the target of an event that carries its argument: scheduling
// h.Handle(arg) stores the two in the event's slot, so a hot path that would
// otherwise bind a closure per event (one per wire granule) allocates
// nothing. A pointer-shaped handler converts to the interface for free.
type Handler interface{ Handle(arg uint64) }

// Func adapts a plain closure to Handler; the argument is ignored.
type Func func()

// Handle runs the closure.
func (f Func) Handle(uint64) { f() }

// wake is a Proc as the handler of its own wakeups, so that they need no
// field of their own in every slot. Handle is never called.
type wake Proc

func (*wake) Handle(uint64) {}

// entry is one pending event's place in the heap: its position in the order
// and the index of the slot holding what it runs.
type entry struct {
	at   Time
	key  uint64
	seq  uint64
	slot uint32
}

// before is the engine's total dispatch order.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// slot is what a pending event runs. A free slot holds no handler; its arg
// links the free list.
type slot struct {
	h     Handler
	arg   uint64
	chain bool
}

// eventHeap is the pending-event set.
type eventHeap struct {
	ents  []entry
	slots []slot
	free  uint32 // 1 + index of the first free slot; 0: none
}

// push queues an event at (at, key, seq) that runs s.
func (q *eventHeap) push(at Time, key, seq uint64, s slot) {
	var si uint32
	if q.free != 0 {
		si = q.free - 1
		q.free = uint32(q.slots[si].arg)
		q.slots[si] = s
	} else {
		si = uint32(len(q.slots))
		q.slots = append(q.slots, s)
	}
	en := entry{at, key, seq, si}
	q.ents = append(q.ents, en)
	ents := q.ents
	i := len(ents) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !en.before(&ents[parent]) {
			break
		}
		ents[i] = ents[parent]
		i = parent
	}
	ents[i] = en
}

// next returns the timestamp of the earliest pending event.
func (q *eventHeap) next() (Time, bool) {
	at, _, ok := q.peekKey()
	return at, ok
}

// peekKey returns the timestamp and lineage key of the earliest pending
// event without popping it. The Group coordinator uses it to interleave
// same-instant events across shard queues in global key order.
func (q *eventHeap) peekKey() (Time, uint64, bool) {
	if len(q.ents) == 0 {
		return 0, 0, false
	}
	return q.ents[0].at, q.ents[0].key, true
}

// popLE pops the earliest pending event into ev if its timestamp is <= max —
// the dispatch loop's peek-then-pop fused into one look at the root. The
// slot goes back on the free list without its handler reference.
func (q *eventHeap) popLE(max Time, ev *event) bool {
	if len(q.ents) == 0 || q.ents[0].at > max {
		return false
	}
	top := q.ents[0]
	s := &q.slots[top.slot]
	*ev = event{at: top.at, key: top.key, h: s.h, arg: s.arg, chain: s.chain}
	*s = slot{arg: uint64(q.free)}
	q.free = top.slot + 1

	n := len(q.ents) - 1
	last := q.ents[n]
	q.ents = q.ents[:n]
	if n == 0 {
		return true
	}
	ents := q.ents
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if ents[c].before(&ents[best]) {
				best = c
			}
		}
		if !ents[best].before(&last) {
			break
		}
		ents[i] = ents[best]
		i = best
	}
	ents[i] = last
	return true
}

// clear drops all pending events and releases their references.
func (q *eventHeap) clear() { *q = eventHeap{} }
