package des

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesSettle waits for the goroutine count to come back to base. A
// stopped coroutine is destroyed before stop returns, so the wait only
// covers goroutines of the test binary itself that are still winding down.
func goroutinesSettle(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestShutdownLeavesNoGoroutine parks one process in every kernel primitive
// (and leaves one unstarted and one dead by panic), shuts the engine down
// and requires every goroutine gone and every started body's defer run.
func TestShutdownLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var (
		cond     Cond
		queue    Queue[int]
		res      = NewResource(1)
		unwound  []string
		parkedIn = func(name string, park func(p *Proc)) {
			e.Spawn(name, func(p *Proc) {
				defer func() { unwound = append(unwound, name) }()
				park(p)
				t.Errorf("%s resumed", name)
			})
		}
	)
	e.Spawn("holder", func(p *Proc) { res.Acquire(p, 1) })
	parkedIn("sleep", func(p *Proc) { p.Sleep(Second) })
	parkedIn("cond", func(p *Proc) { cond.Wait(p) })
	parkedIn("queue", func(p *Proc) { queue.Get(p) })
	parkedIn("resource", func(p *Proc) { res.Acquire(p, 1) })
	parkedIn("chain", func(p *Proc) {
		p.SleepChain([]Step{{D: 1, Hops: 1}, {D: Second, Hops: 2}, {D: Second, Hops: 1}})
	})
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(2)
		panic("kaboom")
	})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("the panicking process did not stop the run")
			}
		}()
		e.RunUntil(10)
	}()
	e.RunUntil(10) // the engine keeps running after a process died by panic
	e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted ran") })
	if during := runtime.NumGoroutine(); during < base+5 {
		t.Errorf("%d goroutines with five processes parked, baseline %d: the test sees nothing", during, base)
	}

	e.Shutdown()
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before NewEngine", n, base)
	}
	// Shutdown unwinds in spawn order.
	if got, want := strings.Join(unwound, " "), "sleep cond queue resource chain"; got != want {
		t.Errorf("defers run by Shutdown: %q, want %q", got, want)
	}
	e.Shutdown() // idempotent
}

// TestGroupShutdownLeavesNoGoroutine is the same for a Group: processes
// parked on both shards and on the global engine, resumed last from window
// goroutines that no longer exist.
func TestGroupShutdownLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(2, 1000)
	unwound := 0
	for i, e := range []*Engine{g.Shard(0), g.Shard(1), g.Global()} {
		e.spawn("daemon", func(p *Proc) {
			defer func() { unwound++ }()
			for {
				p.Sleep(700)
			}
		}, true, Salt(3, uint64(i)))
	}
	g.Global().RunUntil(10000)
	if during := runtime.NumGoroutine(); during < base+3 {
		t.Errorf("%d goroutines with three daemons parked, baseline %d", during, base)
	}
	g.Global().Shutdown()
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before NewGroup", n, base)
	}
	if unwound != 3 {
		t.Errorf("%d of 3 daemon defers ran", unwound)
	}
}

// wantProcPanic runs fn and requires the panic of process "boom".
func wantProcPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		want := `des: process "boom" panicked: kaboom`
		if r := recover(); fmt.Sprint(r) != want {
			t.Errorf("recovered %v, want %s", r, want)
		}
	}()
	fn()
}

// TestProcPanicReachesRunCaller raises a body panic in each place a process
// can be resumed from — the serial driver, another process's dispatch loop,
// a Group window and a Group fused instant — and requires it on Run's
// caller, named, with the engine still fit to be shut down.
func TestProcPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := func(p *Proc) {
		p.Sleep(5)
		panic("kaboom")
	}
	bystander := func(p *Proc) {
		for {
			p.Sleep(1)
		}
	}

	t.Run("serial", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("boom", boom)
		wantProcPanic(t, e.Run)
		e.Shutdown()
	})
	t.Run("serial, resumed by another process", func(t *testing.T) {
		e := NewEngine()
		e.spawn("bystander", bystander, true, e.childKey())
		e.Spawn("boom", boom)
		wantProcPanic(t, e.Run)
		e.Shutdown()
	})
	t.Run("group window", func(t *testing.T) {
		g := NewGroup(2, 1000)
		g.Shard(0).spawn("bystander", bystander, true, Salt(1))
		g.Shard(1).spawn("bystander", bystander, true, Salt(2))
		fused := true
		g.Shard(1).SpawnSeeded(Salt(3), "boom", func(p *Proc) {
			p.Sleep(5)
			fused = g.cur != nil
			panic("kaboom")
		})
		wantProcPanic(t, g.Global().Run)
		if fused {
			t.Error("boom was resumed from a fused instant, not from a window")
		}
		g.Global().Shutdown()
	})
	t.Run("group fused instant", func(t *testing.T) {
		g := NewGroup(2, 1000)
		g.Shard(0).spawn("bystander", bystander, true, Salt(1))
		fused := false
		g.Shard(1).SpawnSeeded(Salt(3), "boom", func(p *Proc) {
			p.Sleep(5)
			fused = g.cur != nil
			panic("kaboom")
		})
		// A global event at the instant boom wakes makes that instant fused.
		g.Global().ScheduleSeeded(Salt(4), 5, func() {})
		wantProcPanic(t, g.Global().Run)
		if !fused {
			t.Error("boom was resumed from a window, not from the fused instant")
		}
		if g.cur != nil {
			t.Error("the panic left the group in its serialized phase")
		}
		g.Global().Shutdown()
	})
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after the four shutdowns, %d before", n, base)
	}
}

// TestProcParkedAcrossRuns drives one engine with Run, RunUntil and Run
// again: a process parked when a call returns is resumed, on its own stack,
// by the next one.
func TestProcParkedAcrossRuns(t *testing.T) {
	e := NewEngine()
	var c Cond
	var log []string
	e.Spawn("walker", func(p *Proc) {
		step := 0 // lives on the process stack across every call below
		mark := func() { step++; log = append(log, fmt.Sprintf("%d@%d", step, p.Now())) }
		mark()
		p.Sleep(10)
		mark()
		c.Wait(p)
		mark()
		p.Sleep(100)
		mark()
	})
	e.Schedule(3, e.Stop)
	e.Run() // stopped at 3, walker parked in its first Sleep
	e.RunUntil(50)
	e.Schedule(60, c.Broadcast)
	e.RunUntil(70)
	e.Run()
	if got, want := strings.Join(log, " "), "1@0 2@10 3@60 4@160"; got != want {
		t.Errorf("walker saw %q, want %q", got, want)
	}
	e.Shutdown()
}
