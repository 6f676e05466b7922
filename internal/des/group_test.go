package des

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// ringGroup wires k nodes over the given engines (node i on engines[i%n]),
// each running rounds of: pseudo-random local sleep, a timed message to the
// ring successor via AfterOn, then a wait for its own predecessor's
// message. Every fifth round the node also requests a control call that
// spawns a process on the control engine, which sleeps two lookaheads and
// pokes the node's condition — exercising deposits, the ctl path and fused
// instants. The sleep quantum is coarse so many events collide on the same
// instant across nodes, stressing the lineage-key order.
func ringGroup(engines []*Engine, ctl *Engine, k, rounds int, look Time) {
	type nd struct {
		eng  *Engine
		got  int
		poke int
		cond Cond
	}
	nodes := make([]*nd, k)
	for i := range nodes {
		nodes[i] = &nd{eng: engines[i%len(engines)]}
	}
	for i := range nodes {
		i := i
		n := nodes[i]
		dst := nodes[(i+1)%k]
		n.eng.SpawnSeeded(Salt(7, uint64(i)), fmt.Sprintf("node%d", i), func(p *Proc) {
			rng := uint64(i)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
			next := func(m uint64) Time {
				rng = rng*6364136223846793005 + 1442695040888963407
				return Time((rng >> 33) % m)
			}
			for r := 0; r < rounds; r++ {
				p.Sleep(next(8) * 500)
				p.Engine().AfterOn(dst.eng, look+next(4)*500, func() {
					dst.got++
					dst.cond.Broadcast()
				})
				if r%5 == 0 {
					salt := Salt(9, uint64(i), uint64(r))
					p.Engine().CtlCall(false, func() {
						ctl.SpawnSeeded(salt, "ctl", func(cp *Proc) {
							cp.Sleep(2 * look)
							n.poke++
							n.cond.Broadcast()
						})
					})
				}
				n.cond.WaitFor(p, func() bool { return n.got > r })
			}
		})
	}
}

// TestGroupMatchesSerial proves the sharded engine's determinism claim on
// the des layer alone: the ring workload's schedule fingerprint, event
// count and final clock are bit-identical between a plain serial engine and
// Groups of 1..4 shards.
func TestGroupMatchesSerial(t *testing.T) {
	const k, rounds = 16, 40
	const look = Time(1000)

	serial := NewEngine()
	serial.EnableTrace()
	ringGroup([]*Engine{serial}, serial, k, rounds, look)
	serial.Run()
	wantFp := serial.TraceFingerprint()
	wantEv := serial.EventsExecuted()
	wantNow := serial.Now()
	serial.Shutdown()
	if wantEv == 0 {
		t.Fatal("serial baseline dispatched nothing")
	}

	for _, shards := range []int{1, 2, 3, 4} {
		g := NewGroup(shards, look)
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = g.Shard(i)
		}
		g.Global().EnableTrace()
		ringGroup(engines, g.Global(), k, rounds, look)
		g.Global().Run()
		if fp := g.Global().TraceFingerprint(); fp != wantFp {
			t.Errorf("shards=%d: fingerprint %016x, serial %016x", shards, fp, wantFp)
		}
		if ev := g.Global().EventsExecuted(); ev != wantEv {
			t.Errorf("shards=%d: events %d, serial %d", shards, ev, wantEv)
		}
		if now := g.Global().Now(); now != wantNow {
			t.Errorf("shards=%d: now %d, serial %d", shards, now, wantNow)
		}
		g.Global().Shutdown()
	}
}

// TestGroupRunUntil drives a group in bounded steps and checks it matches a
// single full run.
func TestGroupRunUntil(t *testing.T) {
	const k, rounds = 8, 20
	const look = Time(1000)

	full := NewGroup(2, look)
	full.Global().EnableTrace()
	ringGroup([]*Engine{full.Shard(0), full.Shard(1)}, full.Global(), k, rounds, look)
	full.Global().Run()
	wantFp := full.Global().TraceFingerprint()
	wantEv := full.Global().EventsExecuted()
	full.Global().Shutdown()

	g := NewGroup(2, look)
	g.Global().EnableTrace()
	ringGroup([]*Engine{g.Shard(0), g.Shard(1)}, g.Global(), k, rounds, look)
	for step := Time(5000); ; step += 5000 {
		g.Global().RunUntil(step)
		if g.Global().EventsExecuted() == wantEv {
			break
		}
		if step > 100*5000 {
			t.Fatalf("stepped run stalled at %d events, want %d", g.Global().EventsExecuted(), wantEv)
		}
	}
	if fp := g.Global().TraceFingerprint(); fp != wantFp {
		t.Errorf("stepped fingerprint %016x, full %016x", fp, wantFp)
	}
	g.Global().Shutdown()
}

// TestGroupDeadlockReport checks that a group-wide hang panics with a
// merged report naming the blocked processes on every shard.
func TestGroupDeadlockReport(t *testing.T) {
	g := NewGroup(2, 1000)
	var c0, c1 Cond
	g.Shard(0).SpawnSeeded(Salt(1), "stuck0", func(p *Proc) { c0.Wait(p) })
	g.Shard(1).SpawnSeeded(Salt(2), "stuck1", func(p *Proc) { c1.Wait(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a deadlock panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"stuck0", "stuck1"} {
			if !containsStr(msg, want) {
				t.Errorf("deadlock report %q does not name %s", msg, want)
			}
		}
		g.Global().Shutdown()
	}()
	g.Global().Run()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// tick gives e one event per lookahead from start on, forever: each one
// schedules the next, and body, when non-nil, runs first with the event's
// index.
func tick(e *Engine, salt uint64, start, look Time, body func(k int)) {
	k := 0
	var f func()
	f = func() {
		if body != nil {
			body(k)
		}
		k++
		e.After(look, f)
	}
	e.ScheduleSeeded(Salt(salt), start, f)
}

// TestGroupStartsOneWorkerPerShard pins the workers' lifecycle: a run starts
// one worker for every shard after the first, however many windows it
// holds, and joins them before it returns; a run made only of fused
// instants starts none.
func TestGroupStartsOneWorkerPerShard(t *testing.T) {
	const look = Time(1000)
	for _, shards := range []int{2, 4} {
		base := goroutinesQuiet()
		g := NewGroup(shards, look)
		for i := 0; i < shards; i++ {
			tick(g.Shard(i), uint64(i), 0, look, nil)
		}
		for run := 1; run <= 3; run++ {
			before := g.Global().WindowStats()
			g.Global().RunUntil(Time(run) * 600 * look)
			got := g.Global().WindowStats().Sub(before)
			if got.Windows < 500 || got.Fused != 0 || got.Workers != uint64(shards-1) {
				t.Errorf("shards=%d run %d: %+v, want >= 500 windows, no fused instant, %d workers", shards, run, got, shards-1)
			}
			if n := goroutinesSettle(base); n > base {
				t.Errorf("shards=%d run %d: %d goroutines after the run, %d before", shards, run, n, base)
			}
		}
		g.Global().Shutdown()
	}

	g := NewGroup(2, look)
	for k := 0; k < 100; k++ {
		at := Time(k) * look
		g.Global().ScheduleSeeded(Salt(5, uint64(k)), at, func() {})
		g.Shard(0).ScheduleSeeded(Salt(6, uint64(k)), at, func() {})
		g.Shard(1).ScheduleSeeded(Salt(7, uint64(k)), at, func() {})
	}
	g.Global().Run()
	if got := g.Global().WindowStats(); got != (WindowStats{Fused: 100}) {
		t.Errorf("fused-only run: %+v, want 100 fused instants and nothing else", got)
	}
	g.Global().Shutdown()
}

// TestGroupHandoffStress drives 30 000 windows of one tiny event per shard
// through the worker handoff at GOMAXPROCS 1 and 2. With the spin budget,
// every 500th window one shard's event sleeps past it, so the other side's
// wait parks; with no spin at all, every wait parks. A wake-up lost between
// a waiter's last look and its park hangs the run, and one that lets a
// shard start early shows as a miscount or, under -race, a race.
func TestGroupHandoffStress(t *testing.T) {
	const look, windows = Time(1000), 30000
	for _, procs := range []int{1, 2} {
		for _, spin := range []time.Duration{spinBudget, 0} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/spin=%v", procs, spin), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				g := NewGroup(2, look)
				g.spin = spin
				var ran, got [2]int
				for i := 0; i < 2; i++ {
					i, other := i, g.Shard(1-i)
					tick(g.Shard(i), uint64(i), 0, look, func(k int) {
						ran[i]++
						if spin > 0 && k%1000 == 500*i {
							time.Sleep(2 * spin)
						}
						g.Shard(i).AfterOn(other, look, func() { got[1-i]++ })
					})
				}
				g.Global().RunUntil((windows - 1) * look)
				w := g.Global().WindowStats()
				if w.Windows != windows || w.Workers != 1 || w.Parks == 0 {
					t.Errorf("%+v, want %d windows, 1 worker, some parks", w, windows)
				}
				t.Logf("%d parks", w.Parks)
				// The last window's deposits land beyond the deadline.
				if ran != [2]int{windows, windows} || got != [2]int{windows - 1, windows - 1} {
					t.Errorf("events ran %v, deposits dispatched %v", ran, got)
				}
				g.Global().Shutdown()
				if n := workersLeft(); n > 0 {
					t.Errorf("%d shard workers outlived the run", n)
				}
			})
		}
	}
}

// BenchmarkGroupWindow is the price of one parallel window: two shards, one
// event each, handed to the persistent worker and joined. A closure or a
// slice allocated per window shows as allocs/op.
func BenchmarkGroupWindow(b *testing.B) {
	const look = Time(1000)
	g := NewGroup(2, look)
	tick(g.Shard(0), 0, 0, look, nil)
	tick(g.Shard(1), 1, 0, look, nil)
	g.Global().RunUntil(look) // two windows: the heap slots exist
	w0 := g.Global().WindowStats().Windows
	b.ReportAllocs()
	b.ResetTimer()
	g.Global().RunUntil(Time(b.N+1) * look)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(g.Global().WindowStats().Windows-w0), "ns/window")
	g.Global().Shutdown()
}
