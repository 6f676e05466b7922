package des

import "testing"

// TestWakesSelf covers the direct self-wake's predicate: a wake pushed at
// (at, key) is dispatched on the spot only when it would be the next event
// popped. Each refusal keeps the queue.
func TestWakesSelf(t *testing.T) {
	const at, key = Time(100), uint64(50)
	queued := func(qat Time, qkey uint64) func(e *Engine) {
		return func(e *Engine) { e.scheduleKeyed(qat, qkey, Func(func() {}), 0) }
	}
	for _, c := range []struct {
		name string
		set  func(e *Engine)
		want bool
	}{
		{"empty queue", func(*Engine) {}, true},
		{"queue head later", queued(at+1, 0), true},
		{"queue head same instant, larger key", queued(at, key+1), true},
		{"stopped", func(e *Engine) { e.stopped = true }, false},
		{"past the deadline", func(e *Engine) { e.deadline = at - 1 }, false},
		{"serialized group phase", func(e *Engine) { e.group = &Group{cur: e} }, false},
		{"queue head earlier", queued(at-1, key+1), false},
		{"queue head same instant, smaller key", queued(at, key-1), false},
		{"queue head same instant and key", queued(at, key), false},
	} {
		e := NewEngine()
		e.deadline = timeMax
		c.set(e)
		if got := e.wakesSelf(at, key); got != c.want {
			t.Errorf("%s: wakesSelf = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSleepSelfWakeRefusals runs the refusals that decide where a process
// stops: a Sleep after Stop, or past RunUntil's deadline, parks the process
// for the next run instead of carrying it on inside this one; an earlier
// queued event runs before the sleeper resumes.
func TestSleepSelfWakeRefusals(t *testing.T) {
	e := NewEngine()
	step := 0
	e.Spawn("p", func(p *Proc) {
		e.Stop()
		p.Sleep(5)
		step = 1
		p.Sleep(10)
		step = 2
	})
	e.Run()
	if step != 0 || e.Now() != 0 {
		t.Fatalf("after Stop: step %d at %v, want the sleeper parked at 0", step, e.Now())
	}
	e.RunUntil(12)
	if step != 1 || e.Now() != 12 {
		t.Fatalf("RunUntil(12): step %d at %v, want 1 at 12 (the wake at 15 is past the deadline)", step, e.Now())
	}
	e.Run()
	if step != 2 || e.Now() != 15 {
		t.Fatalf("Run: step %d at %v, want 2 at 15", step, e.Now())
	}

	var order []string
	e = NewEngine()
	e.Spawn("p", func(p *Proc) {
		e.Schedule(3, func() { order = append(order, "event") })
		p.Sleep(5)
		order = append(order, "sleeper")
	})
	e.Run()
	if len(order) != 2 || order[0] != "event" {
		t.Fatalf("order %v, want the event at 3 before the sleeper's wake at 5", order)
	}
	if c := e.EventCounts(); c.SelfWake != 1 || c.Func != 1 {
		t.Fatalf("counts %+v, want the sleeper's wake counted as a SelfWake", c)
	}
}

// BenchmarkSleepSelfWake: a process sleeping with nothing due before its
// wake, beside a standing population of later events, dispatches the wake
// on the spot — no push, no pop — and allocates nothing.
func BenchmarkSleepSelfWake(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Schedule(Time(1<<40+i), func() {})
	}
	e.Spawn("sleeper", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
	if c := e.EventCounts(); c.SelfWake != uint64(b.N) {
		b.Fatalf("%d self-wakes for %d sleeps", c.SelfWake, b.N)
	}
}
