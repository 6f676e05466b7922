package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// eventQueue is what applyScript needs of a pending-event set, so that one
// script can drive the calendar queue and its oracle.
type eventQueue interface {
	push(ev event)
	pop() (event, bool)
	next() (Time, bool)
}

func newCalQueue() *calQueue {
	q := &calQueue{}
	q.init()
	return q
}

// pop is popLE without a bound; the engine only ever pops against a deadline.
func (q *calQueue) pop() (event, bool) { return q.popLE(timeMax) }

// heapQueue is the oracle: a 4-ary implicit heap of event values, the
// engine's queue before the calendar queue, with no width or occupancy
// assumptions to get wrong.
type heapQueue struct {
	evs []event
}

func (h *heapQueue) push(ev event) {
	h.evs = append(h.evs, ev)
	// Sift up.
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.evs[i].before(&h.evs[parent]) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

func (h *heapQueue) next() (Time, bool) {
	if len(h.evs) == 0 {
		return 0, false
	}
	return h.evs[0].at, true
}

func (h *heapQueue) pop() (event, bool) {
	n := len(h.evs)
	if n == 0 {
		return event{}, false
	}
	top := h.evs[0]
	last := h.evs[n-1]
	h.evs = h.evs[:n-1]
	n--
	if n > 0 {
		// Sift last down from the root.
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
				if h.evs[c].before(&h.evs[best]) {
					best = c
				}
			}
			if !h.evs[best].before(&last) {
				break
			}
			h.evs[i] = h.evs[best]
			i = best
		}
		h.evs[i] = last
	}
	return top, true
}

// queueOp is one step of a deterministic operation sequence applied to the
// calendar queue and to the heap; identical pop sequences prove the calendar
// queue is an exact priority queue, not an approximate one.
type queueOp struct {
	push  bool
	delta Time // offset from the last popped timestamp
}

func makeScript(seed int64, n int) []queueOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]queueOp, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) < 2 {
			var d Time
			switch rng.Intn(10) {
			case 0:
				d = 0 // same-instant cluster
			case 1:
				d = Time(rng.Int63n(int64(Second))) // far jump: empty-year sweep
			default:
				d = Time(rng.Int63n(int64(10 * Microsecond)))
			}
			ops = append(ops, queueOp{push: true, delta: d})
		} else {
			ops = append(ops, queueOp{push: false})
		}
	}
	return ops
}

func applyScript(q eventQueue, ops []queueOp) []event {
	var out []event
	var seq uint64
	var now Time
	for _, op := range ops {
		if op.push {
			seq++
			q.push(event{at: now + op.delta, seq: seq})
			continue
		}
		if at, ok := q.next(); ok {
			ev, _ := q.pop()
			if ev.at != at {
				panic("next/pop disagree")
			}
			now = ev.at
			out = append(out, ev)
		}
	}
	for {
		ev, ok := q.pop()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	return out
}

// TestQueueKindsIdenticalOrder drives the heap oracle and the calendar queue
// through the same randomized push/pop script (same-instant clusters,
// sparse second-scale jumps, interleaved peeks) and requires bit-identical
// pop sequences.
func TestQueueKindsIdenticalOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := makeScript(seed, 20000)
		a := applyScript(&heapQueue{}, ops)
		b := applyScript(newCalQueue(), ops)
		if len(a) != len(b) {
			t.Fatalf("seed %d: popped %d events from heap, %d from calendar", seed, len(a), len(b))
		}
		for i := range a {
			if a[i].at != b[i].at || a[i].seq != b[i].seq {
				t.Fatalf("seed %d: pop %d differs: heap (at=%d seq=%d) calendar (at=%d seq=%d)",
					seed, i, a[i].at, a[i].seq, b[i].at, b[i].seq)
			}
		}
		// Verify the shared order really is the (at, seq) total order.
		for i := 1; i < len(a); i++ {
			if !a[i-1].before(&a[i]) {
				t.Fatalf("seed %d: pop %d out of order", seed, i)
			}
		}
	}
}

// TestCalendarEarlierPushAfterPeek pins the peek-cache rule: peeking must
// not advance the dispatch cursor, so a later push at an earlier time (but
// still >= the clock) is popped first.
func TestCalendarEarlierPushAfterPeek(t *testing.T) {
	q := newCalQueue()
	q.push(event{at: Time(Millisecond), seq: 1})
	if at, ok := q.next(); !ok || at != Time(Millisecond) {
		t.Fatalf("next = %v, %v; want 1ms", at, ok)
	}
	q.push(event{at: Time(10), seq: 2})
	ev, _ := q.pop()
	if ev.at != Time(10) || ev.seq != 2 {
		t.Fatalf("popped (at=%d seq=%d); want the later-pushed earlier event", ev.at, ev.seq)
	}
	ev, _ = q.pop()
	if ev.at != Time(Millisecond) || ev.seq != 1 {
		t.Fatalf("popped (at=%d seq=%d); want the peeked event", ev.at, ev.seq)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestCalendarSparseJump exercises the empty-year fast path: events many
// calendar years apart must still pop in order without the cursor stepping
// through every empty day.
func TestCalendarSparseJump(t *testing.T) {
	q := newCalQueue()
	times := []Time{0, Time(Second), 40 * Time(Second), 41 * Time(Second)}
	for i, at := range times {
		q.push(event{at: at, seq: uint64(i + 1)})
	}
	for i, want := range times {
		ev, ok := q.pop()
		if !ok || ev.at != want {
			t.Fatalf("pop %d = (at=%d, ok=%v); want at=%d", i, ev.at, ok, want)
		}
	}
}

// TestCalendarResizeStress pushes enough events to force repeated grow
// resizes, drains through the shrink path, and checks order and count.
func TestCalendarResizeStress(t *testing.T) {
	q := newCalQueue()
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	for i := 0; i < n; i++ {
		q.push(event{at: Time(rng.Int63n(int64(100 * Microsecond))), seq: uint64(i + 1)})
	}
	if q.n != n {
		t.Fatalf("len = %d, want %d", q.n, n)
	}
	var prev event
	for i := 0; i < n; i++ {
		ev, ok := q.pop()
		if !ok {
			t.Fatalf("queue dry after %d pops, want %d", i, n)
		}
		if i > 0 && !prev.before(&ev) {
			t.Fatalf("pop %d out of order: (%d,%d) then (%d,%d)", i, prev.at, prev.seq, ev.at, ev.seq)
		}
		prev = ev
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestScheduleDispatchZeroAlloc pins the pooled queue's allocation claim:
// once its storage is warm, scheduling and dispatching an event allocates
// nothing — events are values in reused slices, and process wakeups ride
// the event itself rather than a closure.
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

// BenchmarkEngineScheduleDispatch measures the schedule+dispatch hot loop;
// ReportAllocs pins the zero-steady-state-allocation property the pooled
// design exists for.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		if n < b.N {
			n++
			e.Schedule(e.now+Time(n&7), fn)
		}
	}
	// Keep a standing population so the queue works at realistic
	// occupancy rather than ping-ponging a single event.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
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
