package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pendingSet is what applyScript needs of a pending-event set, so that one
// script drives the engine's heap and its oracle alike.
type pendingSet interface {
	push(at Time, key, seq uint64)
	pop() (entry, bool)
	peekKey() (Time, uint64, bool)
}

// heapUnderTest is the engine's heap seen through pendingSet. The sequence
// number rides in the slot's argument, so a pop shows that the slot handed
// back is the one its entry was pushed with.
type heapUnderTest struct{ q eventHeap }

func (h *heapUnderTest) push(at Time, key, seq uint64) {
	h.q.push(at, key, seq, slot{h: Func(nil), arg: seq})
}

func (h *heapUnderTest) pop() (entry, bool) {
	var ev event
	if !h.q.popLE(timeMax, &ev) {
		return entry{}, false
	}
	return entry{at: ev.at, key: ev.key, seq: ev.arg}, true
}

func (h *heapUnderTest) peekKey() (Time, uint64, bool) { return h.q.peekKey() }

// scanQueue is the oracle: a plain slice whose minimum is found by a linear
// scan for the (at, key, seq)-smallest entry — the definition of the order,
// with no structure to get wrong and its own comparison, not the heap's.
type scanQueue struct{ ents []entry }

// precedes is the dispatch order, spelled out: time, then lineage key, then
// scheduling sequence.
func precedes(a, b entry) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.key != b.key:
		return a.key < b.key
	default:
		return a.seq < b.seq
	}
}

func (s *scanQueue) push(at Time, key, seq uint64) {
	s.ents = append(s.ents, entry{at: at, key: key, seq: seq})
}

func (s *scanQueue) min() int {
	best := -1
	for i := range s.ents {
		if best < 0 || precedes(s.ents[i], s.ents[best]) {
			best = i
		}
	}
	return best
}

func (s *scanQueue) pop() (entry, bool) {
	i := s.min()
	if i < 0 {
		return entry{}, false
	}
	top := s.ents[i]
	n := len(s.ents) - 1
	s.ents[i] = s.ents[n]
	s.ents = s.ents[:n]
	return top, true
}

func (s *scanQueue) peekKey() (Time, uint64, bool) {
	i := s.min()
	if i < 0 {
		return 0, 0, false
	}
	return s.ents[i].at, s.ents[i].key, true
}

// queueOp is one step of a deterministic operation sequence applied to the
// heap and to the oracle; identical observations prove the heap an exact
// priority queue over (at, key, seq).
type queueOp struct {
	kind  byte   // opPush, opPop or opPeek
	delta Time   // push: offset from the last popped timestamp
	key   uint64 // push: lineage key
}

const (
	opPush byte = iota
	opPop
	opPeek
)

// makeScript mixes pushes, pops and peeks. Pushes land at the last popped
// instant (same-instant clusters), a few µs later, up to a second later
// (sparse regions) or up to an hour later (far-future timers), under random
// keys or under a handful of colliding small ones, so that the seq tiebreak
// is exercised. Four times per script comes an np = 4096-shaped burst: 2 048
// same-instant events under random keys, a collective's fan-out. Sixteen
// times comes a smaller same-instant burst of 4k−1, 4k or 4k+1 events in
// turn, so that pops sift through full child groups, end in a partial last
// group and stop early at every heap size around a multiple of four.
func makeScript(seed int64, n int) []queueOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]queueOp, 0, n+4*2048+16*65)
	for i, bursts := 0, 0; i < n; i++ {
		if i%(n/4) == n/8 {
			for j := 0; j < 2048; j++ {
				ops = append(ops, queueOp{kind: opPush, key: rng.Uint64()})
			}
		}
		if i%(n/16) == n/32 {
			size := 4*(1+rng.Intn(16)) - 1 + bursts%3
			bursts++
			for j := 0; j < size; j++ {
				op := queueOp{kind: opPush, key: rng.Uint64()}
				if rng.Intn(4) == 0 {
					op.key = uint64(rng.Intn(3))
				}
				ops = append(ops, op)
			}
		}
		switch r := rng.Intn(6); {
		case r < 3:
			op := queueOp{kind: opPush, key: rng.Uint64()}
			if rng.Intn(4) == 0 {
				op.key = uint64(rng.Intn(3))
			}
			switch rng.Intn(20) {
			case 0, 1:
				op.delta = 0
			case 2:
				op.delta = Time(rng.Int63n(int64(Second)))
			case 3:
				op.delta = Time(rng.Int63n(int64(3600 * Second)))
			default:
				op.delta = Time(rng.Int63n(int64(10 * Microsecond)))
			}
			ops = append(ops, op)
		case r < 5:
			ops = append(ops, queueOp{kind: opPop})
		default:
			ops = append(ops, queueOp{kind: opPeek})
		}
	}
	return ops
}

// applyScript runs ops and then drains the set, returning every popped
// entry and every peek (as an entry with seq 0; pushed seqs start at 1).
// Like the engine, it never pushes before the last popped instant.
func applyScript(q pendingSet, ops []queueOp) []entry {
	var out []entry
	var seq uint64
	var now Time
	for _, op := range ops {
		switch op.kind {
		case opPush:
			seq++
			q.push(now+op.delta, op.key, seq)
		case opPop:
			if ev, ok := q.pop(); ok {
				now = ev.at
				out = append(out, ev)
			}
		default:
			at, key, _ := q.peekKey()
			out = append(out, entry{at: at, key: key})
		}
	}
	for {
		ev, ok := q.pop()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// sameObservations reports the first difference between two applyScript
// results, or "" when there is none.
func sameObservations(want, got []entry) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d observations from the oracle, %d from the heap", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("observation %d: oracle %+v, heap %+v", i, want[i], got[i])
		}
	}
	return ""
}

// TestQueueKindsIdenticalOrder drives the oracle and the heap through the
// same randomized scripts and requires identical pops and peeks; pops
// never go back in time.
func TestQueueKindsIdenticalOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := makeScript(seed, 20000)
		want := applyScript(&scanQueue{}, ops)
		got := applyScript(&heapUnderTest{}, ops)
		if d := sameObservations(want, got); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		var now Time
		for i, ev := range want {
			if ev.seq == 0 {
				continue // a peek
			}
			if ev.at < now {
				t.Fatalf("seed %d: observation %d pops %+v after the clock reached %v", seed, i, ev, now)
			}
			now = ev.at
		}
	}
}

// TestLessIsBefore pins the branch-free comparison that picks the least of
// a full child group against the oracle's order on boundary triples: the
// extreme and sign-crossing times, the extreme keys, equal (at, key) where
// seq alone decides, and identical entries, which do not compare less.
func TestLessIsBefore(t *testing.T) {
	var table []entry
	for _, at := range []Time{0, 1, -1, math.MaxInt64, math.MinInt64} {
		for _, key := range []uint64{0, 1, math.MaxUint64} {
			for _, seq := range []uint64{0, 1, math.MaxUint64} {
				table = append(table, entry{at: at, key: key, seq: seq})
			}
		}
	}
	for _, a := range table {
		for _, b := range table {
			want := 0
			if precedes(a, b) {
				want = 1
			}
			if got := less(&a, &b); got != want {
				t.Errorf("less(%+v, %+v) = %d, want %d", a, b, got, want)
			}
			if a.before(&b) != precedes(a, b) {
				t.Errorf("before(%+v, %+v) = %v, oracle says %v", a, b, a.before(&b), precedes(a, b))
			}
		}
	}
}

// FuzzQueue decodes bytes into a push/pop/peekKey script and checks the
// heap against the oracle. Each op is three bytes: kind (low two bits:
// 0, 1 push, 2 pop, 3 peek) and, for a push, a shift (the kind byte's
// upper bits, mod 41) applied to the delta byte, and a key byte — below 128
// one of four colliding small keys, otherwise a hashed one. Only the first
// 128 ops are read: the oracle's drain is quadratic. The cut is a min, not
// a branch, so a long input covers nothing new and the fuzzer never spends
// its time minimizing one.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 0, 0, 1, 200, 3, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 2, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []queueOp
		for data = data[:min(len(data), 3*128)]; len(data) >= 3; data = data[3:] {
			kind, d, k := data[0], data[1], data[2]
			switch kind & 3 {
			case 0, 1:
				key := uint64(k & 3)
				if k >= 128 {
					key = mixKey(uint64(k), 0)
				}
				ops = append(ops, queueOp{kind: opPush, delta: Time(d) << ((kind >> 2) % 41), key: key})
			case 2:
				ops = append(ops, queueOp{kind: opPop})
			default:
				ops = append(ops, queueOp{kind: opPeek})
			}
		}
		want := applyScript(&scanQueue{}, ops)
		got := applyScript(&heapUnderTest{}, ops)
		if d := sameObservations(want, got); d != "" {
			t.Fatal(d)
		}
	})
}

// TestQueueEarlierPushAfterPeek: a peek commits nothing, so a later push at
// an earlier time (but still >= the clock) is popped first.
func TestQueueEarlierPushAfterPeek(t *testing.T) {
	q := &heapUnderTest{}
	q.push(Time(Millisecond), 0, 1)
	if at, _, ok := q.peekKey(); !ok || at != Time(Millisecond) {
		t.Fatalf("peek = %v, %v; want 1ms", at, ok)
	}
	q.push(Time(10), 0, 2)
	if ev, _ := q.pop(); ev.at != Time(10) || ev.seq != 2 {
		t.Fatalf("popped %+v; want the later-pushed earlier event", ev)
	}
	if ev, _ := q.pop(); ev.at != Time(Millisecond) || ev.seq != 1 {
		t.Fatalf("popped %+v; want the peeked event", ev)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestQueueSparseJump: events far apart, with far-future timers pushed
// before near ones, pop in time order.
func TestQueueSparseJump(t *testing.T) {
	q := &heapUnderTest{}
	times := []Time{3600 * Second, 41 * Second, Second, 0, 40 * Second}
	for i, at := range times {
		q.push(at, 0, uint64(i+1))
	}
	for i, want := range []Time{0, Second, 40 * Second, 41 * Second, 3600 * Second} {
		if ev, ok := q.pop(); !ok || ev.at != want {
			t.Fatalf("pop %d = (%+v, ok=%v); want at=%d", i, ev, ok, want)
		}
	}
}

// TestQueueGrowDrainStress pushes 50 000 events, drains them in order, and
// requires every slot back on the free list with no handler in it.
func TestQueueGrowDrainStress(t *testing.T) {
	q := &heapUnderTest{}
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	for i := 0; i < n; i++ {
		q.push(Time(rng.Int63n(int64(100*Microsecond))), rng.Uint64()&0xff, uint64(i+1))
	}
	if len(q.q.ents) != n {
		t.Fatalf("len = %d, want %d", len(q.q.ents), n)
	}
	var prev entry
	for i := 0; i < n; i++ {
		ev, ok := q.pop()
		if !ok {
			t.Fatalf("queue dry after %d pops, want %d", i, n)
		}
		if i > 0 && !precedes(prev, ev) {
			t.Fatalf("pop %d out of order: %+v then %+v", i, prev, ev)
		}
		prev = ev
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
	free := 0
	for s := q.q.free; s != 0; s = uint32(q.q.slots[s-1].arg) {
		if q.q.slots[s-1].h != nil {
			t.Fatalf("free slot %d still holds its handler", s-1)
		}
		free++
	}
	if free != len(q.q.slots) {
		t.Fatalf("%d of %d slots on the free list after the drain", free, len(q.q.slots))
	}
}

// TestShutdownReleasesHandlers: a popped event's slot lets go of its handler
// at once, and Shutdown drops the heap and the slot table with whatever they
// still held — closures, argument handlers and process wakes alike.
func TestShutdownReleasesHandlers(t *testing.T) {
	held := func(e *Engine) int {
		n := 0
		for _, s := range e.q.slots {
			if s.h != nil {
				n++
			}
		}
		return n
	}
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if n := held(e); n != 0 || len(e.q.slots) == 0 {
		t.Fatalf("%d of %d slots hold a handler after the queue drained", n, len(e.q.slots))
	}
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("chain", func(p *Proc) { p.SleepChain([]Step{{D: Second, Hops: 1}, {D: Second, Hops: 1}}) })
	e.Schedule(Second, func() {})
	e.AfterOnArg(e, Second, Func(func() {}), 7)
	e.RunUntil(1)
	if n := held(e); n != 4 {
		t.Fatalf("%d slots hold a handler with four events pending, want 4", n)
	}
	e.Shutdown()
	if e.q.ents != nil || e.q.slots != nil || e.q.free != 0 {
		t.Fatalf("Shutdown kept %d entries and %d slots", len(e.q.ents), len(e.q.slots))
	}
}

// TestScheduleDispatchZeroAlloc pins the pooled queue's allocation claim:
// once its storage is warm, scheduling and dispatching an event allocates
// nothing — entries and slots are values in reused slices, and process
// wakeups ride the slot itself rather than a closure.
func TestScheduleDispatchZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	warm := func() {
		for i := 0; i < 8; i++ {
			e.Schedule(e.now+Time(i%3), fn)
		}
		e.Run()
	}
	warm()
	if avg := testing.AllocsPerRun(50, warm); avg != 0 {
		t.Errorf("%.1f allocs per schedule+run batch, want 0", avg)
	}
}

// TestProcsCompaction asserts the process table stays bounded across
// heavy churn — the np=4096 lazy-dial pattern that used to grow e.procs
// (and every Shutdown walk) without limit.
func TestProcsCompaction(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 20000; i++ {
		e.Spawn("churn", func(p *Proc) { p.Sleep(Microsecond) })
		e.Run()
	}
	if n := len(e.procs); n > 256 {
		t.Fatalf("procs table holds %d entries after churn; compaction should keep it bounded", n)
	}
	// The table must still know about live processes: a daemon spawned
	// before more churn survives compaction.
	var got *Proc
	e.spawn("keeper", func(p *Proc) {
		got = p
		for {
			p.Sleep(Second)
		}
	}, true, e.childKey())
	for i := 0; i < 1000; i++ {
		e.Spawn("churn", func(p *Proc) { p.Sleep(Microsecond) })
		e.RunUntil(e.Now() + 10*Microsecond)
	}
	found := false
	for _, p := range e.procs {
		if p == got {
			found = true
		}
	}
	if !found {
		t.Fatal("live daemon evicted by compaction")
	}
	e.Shutdown()
}

// BenchmarkEngineScheduleDispatch measures the schedule+dispatch hot loop
// at a standing population of 2 (a ping-pong's pending set), 64 (a
// collective's) and 4096 (an np = 4096 burst's): every dispatch schedules
// one replacement a few ns ahead. burst256 is NAS CG.S at np = 256 (DESIGN.md
// §12): 256 events on one instant under random lineage keys, each
// dispatch scheduling its successor one tick later. ReportAllocs pins the
// zero steady-state allocation property the pooled design exists for.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	for _, pop := range []int{2, 64, 4096} {
		b.Run(fmt.Sprint(pop), func(b *testing.B) {
			e := NewEngine()
			n := 0
			var fn func()
			fn = func() {
				if n < b.N {
					n++
					e.Schedule(e.now+Time(n&7), fn)
				}
			}
			for i := 0; i < pop; i++ {
				e.Schedule(Time(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
	b.Run("burst256", func(b *testing.B) {
		e := NewEngine()
		n := 0
		var fn func()
		fn = func() {
			if n < b.N {
				n++
				e.Schedule(e.now+1, fn)
			}
		}
		for i := 0; i < 256; i++ {
			e.ScheduleSeeded(Salt(uint64(i)), 0, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
}

// BenchmarkProcHandoff measures one simulated blocking point on the
// self-wake fast path: a lone process sleeping zero-length intervals is its
// own next event every time, so each iteration is one wake event,
// dispatched on the spot without leaving its goroutine.
// BenchmarkProcSwitch is the hand-off that does leave it.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSwitch measures a genuine process-to-process hand-off: a
// ring of N processes each sleeping one tick, so every event is popped by
// the process before its owner in the ring and resumes another goroutine.
// Larger rings add the cache misses of touching N stacks in turn.
func BenchmarkProcSwitch(b *testing.B) {
	for _, n := range []int{2, 256, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < n; i++ {
				laps := b.N / n
				if i < b.N%n {
					laps++
				}
				e.Spawn("ring", func(p *Proc) {
					for ; laps > 0; laps-- {
						p.Sleep(1)
					}
				})
			}
			e.RunUntil(0) // start every process: the ring is then in steady state
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			if got := e.EventsExecuted(); got != uint64(n+b.N) {
				b.Fatalf("%d events for %d sleeps around a ring of %d", got, b.N, n)
			}
		})
	}
}
