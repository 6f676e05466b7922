package des

// The engine's pending-event set is a calendar queue (Brown, CACM 1988): an
// exact priority queue over the (at, key, seq) total order, O(1) amortized
// because the simulation's events are overwhelmingly near-future (DESIGN.md
// §12 has the measurements). Engine holds it by value and calls it directly.
// The 4-ary heap it replaced lives on in queue_test.go as its oracle: the
// same randomized push/pop script must pop bit-identically from both.

// event is a scheduled occurrence. Events with equal times fire in lineage
// key order (see engine.go: a key is a hash of the scheduling event's key
// and a per-dispatch child counter), with the engine-local scheduling
// sequence as the final tiebreak. The key order is a pure function of the
// simulation's causal structure, so it is identical whether the engine runs
// alone or as one shard of a Group — that is what makes sharded dispatch
// bit-identical to serial. Events are plain values — they live inside the
// queue's slices, never individually on the heap. An event runs
// h.Handle(arg): a plain closure (Func) or a handler carrying its argument.
// The wakeup of a process or task is the exception: h is its *wake and arg
// the pause generation it targets, dispatch (Engine.fire) resumes it directly
// if that generation is still current, with no per-wakeup closure allocation,
// and chain marks the wake of a SleepChain (chain.go).
type event struct {
	at    Time
	key   uint64
	seq   uint64
	h     Handler
	arg   uint64
	chain bool
}

// Handler is the target of an event that carries its argument: scheduling
// h.Handle(arg) stores the two in the event itself, so a hot path that would
// otherwise bind a closure per event (one per wire granule) allocates
// nothing. A pointer-shaped handler converts to the interface for free.
type Handler interface{ Handle(arg uint64) }

// Func adapts a plain closure to Handler; the argument is ignored.
type Func func()

// Handle runs the closure.
func (f Func) Handle(uint64) { f() }

// wake is a Proc as the handler of its own wakeups, so that they need no
// field of their own in every event (the queues hold events by value, and
// that is a quarter of the live heap at np=4096). Handle is never called.
type wake Proc

func (*wake) Handle(uint64) {}

// before is the engine's total dispatch order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// calBucket is one calendar bucket: the events of the days that hash to
// it, held in a small 4-ary min-heap over the (at, key, seq) order. The
// calendar only ever needs the bucket's minimum, so a heap gives O(log k)
// insert and pop where a sorted array paid O(k) shifting — and k explodes
// exactly when the simulation bursts: lineage keys are hashes, so a burst
// of same-instant events (a 1024-rank collective fanning out) inserts at
// random positions, not at the tail the old monotone-seq order hit.
type calBucket struct {
	evs []event
}

func (b *calBucket) empty() bool { return len(b.evs) == 0 }

func (b *calBucket) min() *event { return &b.evs[0] }

func (b *calBucket) pop() event {
	top := b.evs[0]
	n := len(b.evs) - 1
	last := b.evs[n]
	b.evs[n] = event{} // release handler references
	b.evs = b.evs[:n]
	if n > 0 {
		evs := b.evs
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if evs[c].before(&evs[best]) {
					best = c
				}
			}
			if !evs[best].before(&last) {
				break
			}
			evs[i] = evs[best]
			i = best
		}
		evs[i] = last
	}
	return top
}

func (b *calBucket) insert(ev event) {
	b.evs = append(b.evs, ev)
	i := len(b.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !b.evs[i].before(&b.evs[parent]) {
			break
		}
		b.evs[i], b.evs[parent] = b.evs[parent], b.evs[i]
		i = parent
	}
}

// calQueue is a classic calendar queue: time is divided into days of width
// 2^shift ns; day d's events live in bucket d & mask, sorted. Popping
// sweeps forward from the current day; when a whole year (all buckets)
// passes without a hit, the cursor jumps straight to the earliest bucket
// minimum, so sparse regions cost one scan instead of one step per empty
// day. The bucket count and width adapt to the pending population.
type calQueue struct {
	buckets []calBucket
	mask    int64
	shift   uint
	day     int64 // dispatch cursor, in day units
	n       int

	// Memoized location of the next event, so next()+popLE() pairs and
	// repeated peeks don't re-sweep. Invalidated by a push into an earlier
	// day and by popping a bucket dry.
	cacheOK     bool
	cacheBucket int
	cacheDay    int64

	scratch []event // resize staging, reused
}

const (
	calMinBuckets = 16
	calInitShift  = 10 // 1 µs days until the first resize measures the real spread
)

// init readies an empty queue.
func (q *calQueue) init() { q.setup(calMinBuckets, calInitShift, 0) }

func (q *calQueue) setup(nb int, shift uint, day int64) {
	if cap(q.buckets) >= nb {
		q.buckets = q.buckets[:nb]
		for i := range q.buckets {
			q.buckets[i].evs = q.buckets[i].evs[:0]
		}
	} else {
		q.buckets = make([]calBucket, nb)
	}
	q.mask = int64(nb - 1)
	q.shift = shift
	q.day = day
	q.cacheOK = false
}

// clear drops all pending events and releases their references.
func (q *calQueue) clear() {
	q.buckets = nil
	q.scratch = nil
	q.n = 0
	q.cacheOK = false
}

func (q *calQueue) push(ev event) {
	d := int64(ev.at) >> q.shift
	if d < q.day {
		// Cannot happen (Schedule clamps at >= now, and day never passes the
		// earliest pending event), but folding into the current day keeps
		// the structure correct regardless.
		d = q.day
	}
	q.buckets[d&q.mask].insert(ev)
	q.n++
	if q.cacheOK && d < q.cacheDay {
		q.cacheOK = false
	}
	if q.n > 2*len(q.buckets) {
		q.resize()
	}
}

// locate finds the bucket holding the next event in dispatch order and the
// day it belongs to. It does not advance q.day — pushes at times earlier
// than a peeked-at event must still be honored, so cursor movement is only
// persisted by pop, where the popped timestamp bounds all later pushes.
func (q *calQueue) locate() (int, int64, bool) {
	if q.n == 0 {
		return 0, 0, false
	}
	if q.cacheOK {
		return q.cacheBucket, q.cacheDay, true
	}
	nb := len(q.buckets)
	day := q.day
	for i := 0; i < nb; i++ {
		b := &q.buckets[day&q.mask]
		if !b.empty() && int64(b.min().at)>>q.shift == day {
			q.cacheOK, q.cacheBucket, q.cacheDay = true, int(day&q.mask), day
			return q.cacheBucket, day, true
		}
		day++
	}
	// A whole year is empty: jump to the earliest bucket minimum.
	best := -1
	var bestEv *event
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.empty() {
			continue
		}
		if best < 0 || b.min().before(bestEv) {
			best, bestEv = i, b.min()
		}
	}
	day = int64(bestEv.at) >> q.shift
	q.cacheOK, q.cacheBucket, q.cacheDay = true, best, day
	return best, day, true
}

// next returns the timestamp of the earliest pending event.
func (q *calQueue) next() (Time, bool) {
	at, _, ok := q.peekKey()
	return at, ok
}

// peekKey returns the timestamp and lineage key of the earliest pending
// event without popping it. The Group coordinator uses it to interleave
// same-instant events across shard queues in global key order.
func (q *calQueue) peekKey() (Time, uint64, bool) {
	idx, _, ok := q.locate()
	if !ok {
		return 0, 0, false
	}
	ev := q.buckets[idx].min()
	return ev.at, ev.key, true
}

// popLE pops the earliest pending event if its timestamp is <= max — the
// dispatch loop's peek-then-pop fused into one find-min.
func (q *calQueue) popLE(max Time) (event, bool) {
	idx, day, ok := q.locate()
	if !ok || q.buckets[idx].min().at > max {
		return event{}, false
	}
	return q.take(idx, day), true
}

// take removes and returns the minimum of bucket idx, whose events belong to
// day, and persists the cursor there.
func (q *calQueue) take(idx int, day int64) event {
	b := &q.buckets[idx]
	ev := b.pop()
	q.n--
	q.day = day // safe: every later push is clamped to at >= ev.at
	if b.empty() || int64(b.min().at)>>q.shift != day {
		q.cacheOK = false
	}
	if q.n < len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.resize()
	}
	return ev
}

// resize rebuilds the calendar around the current population: bucket count
// tracks n (occupancy near one), and the day width is re-derived from the
// pending set's time spread so that consecutive events land a few buckets
// apart — the regime where push and pop are O(1).
func (q *calQueue) resize() {
	all := q.scratch[:0]
	for i := range q.buckets {
		b := &q.buckets[i]
		all = append(all, b.evs...)
	}

	nb := calMinBuckets
	for nb < q.n {
		nb <<= 1
	}

	shift := q.shift
	if q.n >= 2 {
		lo, hi := all[0].at, all[0].at
		for _, ev := range all[1:] {
			if ev.at < lo {
				lo = ev.at
			}
			if ev.at > hi {
				hi = ev.at
			}
		}
		// Aim for ~4 events per day across the observed spread; clustered
		// same-instant events share a day regardless of width.
		width := int64(hi-lo) * 4 / int64(q.n)
		shift = 0
		for shift < 40 && 1<<(shift+1) <= width {
			shift++
		}
	}

	floor := q.day << q.shift // lower bound on every pending/future timestamp's day
	q.setup(nb, shift, floor>>shift)
	for _, ev := range all {
		d := int64(ev.at) >> q.shift
		if d < q.day {
			d = q.day
		}
		q.buckets[d&q.mask].insert(ev)
	}
	q.scratch = all[:0] // keep the staging array for the next resize
}
