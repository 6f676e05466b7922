package des

import (
	"fmt"
	"testing"
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
