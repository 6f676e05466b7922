package model

import (
	"reflect"
	"testing"

	"repro/internal/des"
)

// TestWatchNotifiesOnlyItsOwner: a notification of one rank's watch wakes
// that watch's waiter and cuts that watch's chain, and nothing on the
// node's other watches; a node-wide notification reaches every watch, the
// default one included; every counter only ever moves forward.
func TestWatchNotifiesOnlyItsOwner(t *testing.T) {
	e := des.NewEngine()
	n := NewNode(0, Testbed())
	a, b, def := n.NewWatch(0), n.NewWatch(1), n.DefaultWatch()
	const step, steps = 10 * des.Microsecond, 5
	chain := make([]des.Step, steps)
	for i := range chain {
		chain[i] = des.Step{D: step, Hops: 1}
	}
	woke := map[string]des.Time{}
	paid := map[string]int{}
	for name, w := range map[string]*Watch{"a": a, "b": b, "default": def} {
		name, w := name, w
		e.Spawn("wait-"+name, func(p *des.Proc) {
			w.WaitSince(p, w.Seq())
			woke[name] = p.Now()
		})
	}
	for name, w := range map[string]*Watch{"a": a, "b": b} {
		name, w := name, w
		e.Spawn("chain-"+name, func(p *des.Proc) { paid[name] = w.SleepChain(p, chain) })
	}
	var seqs [][3]uint64
	sample := func() { seqs = append(seqs, [3]uint64{a.Seq(), b.Seq(), def.Seq()}) }
	sample()
	e.Schedule(15*des.Microsecond, func() { a.Notify(); sample() })
	e.Schedule(100*des.Microsecond, func() { n.NotifyAll(); sample() })
	e.Run()

	detect := n.Params.PollDetect
	want := map[string]des.Time{
		"a":       15*des.Microsecond + detect,
		"b":       100*des.Microsecond + detect,
		"default": 100*des.Microsecond + detect,
	}
	for name, at := range want {
		if woke[name] != at {
			t.Errorf("watch %s: waiter woke at %v, want %v", name, woke[name], at)
		}
	}
	if paid["a"] != 2 || paid["b"] != steps {
		t.Errorf("chains paid a=%d b=%d steps, want 2 (cut in the second) and %d", paid["a"], paid["b"], steps)
	}
	if want := [][3]uint64{{0, 0, 0}, {1, 0, 0}, {2, 1, 1}}; !reflect.DeepEqual(seqs, want) {
		t.Errorf("counters (a, b, default) went %v, want %v", seqs, want)
	}
	if a.Owner() != 0 || b.Owner() != 1 || def.Owner() != -1 {
		t.Errorf("owners %d %d %d, want 0 1 -1", a.Owner(), b.Owner(), def.Owner())
	}
}
