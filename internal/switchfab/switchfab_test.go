package switchfab

import (
	"testing"

	"repro/internal/des"
	"repro/internal/model"
)

func mustNew(t *testing.T, cfg Config, nodes, rails int) *Fabric {
	t.Helper()
	f, err := New(cfg, nodes, rails, 870)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTopologyShape(t *testing.T) {
	f := mustNew(t, Config{LeafDown: 4, LeafUp: 2}, 10, 2)
	if got := f.Leaves(); got != 3 {
		t.Fatalf("10 nodes / 4 per leaf = %d leaves, want 3", got)
	}
	if f.LeafOf(0) != 0 || f.LeafOf(3) != 0 || f.LeafOf(4) != 1 || f.LeafOf(9) != 2 {
		t.Fatal("LeafOf does not partition nodes into blocks of LeafDown")
	}
	if f.Label() != "fattree-d4-u2" {
		t.Fatalf("label %q", f.Label())
	}
	if f.Plane(0) == f.Plane(1) {
		t.Fatal("rails must get independent planes")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{LeafDown: 0, LeafUp: 1}, 4, 1, 870); err == nil {
		t.Fatal("LeafDown 0 accepted")
	}
	if _, err := New(Config{LeafDown: 2, LeafUp: 0}, 4, 1, 870); err == nil {
		t.Fatal("LeafUp 0 accepted")
	}
}

// TestUncontendedPortAddsNoWait: a single flow paced at link rate sees
// zero queueing — the cut-through property that keeps an idle fat tree
// latency-equivalent to flat plus the hop terms.
func TestUncontendedPortAddsNoWait(t *testing.T) {
	f := mustNew(t, Config{LeafDown: 2, LeafUp: 1}, 4, 1)
	p := f.Plane(0)
	now := des.Time(0)
	const g = 16384
	ser := model.TimeForBytes(g, 870)
	for i := 0; i < 5; i++ {
		if w := p.Up(0, 0, g, now); w != 0 {
			t.Fatalf("granule %d waited %v on an idle-paced port", i, w)
		}
		now += ser // the source bus paces injection at exactly link rate
	}
	st := f.Stats()
	if st.UpGranules != 5 || st.UpWaited != 0 || st.BytesUp != 5*g {
		t.Fatalf("stats %+v", st)
	}
}

// TestContendedPortQueues: two flows sharing one uplink each see half
// throughput — the second granule offered at the same instant waits out
// the first one's serialization, and waits accumulate linearly.
func TestContendedPortQueues(t *testing.T) {
	f := mustNew(t, Config{LeafDown: 4, LeafUp: 1}, 8, 1)
	p := f.Plane(0)
	const g = 16384
	ser := model.TimeForBytes(g, 870)
	if w := p.Up(0, 0, g, 0); w != 0 {
		t.Fatalf("first granule waited %v", w)
	}
	if w := p.Up(0, 0, g, 0); w != ser {
		t.Fatalf("second granule waited %v, want %v", w, ser)
	}
	if w := p.Up(0, 0, g, 0); w != 2*ser {
		t.Fatalf("third granule waited %v, want %v", w, 2*ser)
	}
	if st := f.Stats(); st.MaxWait != 2*ser || st.UpWaited != 3*ser {
		t.Fatalf("stats %+v", st)
	}
}

// TestPortDeparturesStrictlyIncrease: even zero-byte headers occupy a
// port for one tick, so per-flow departures are strictly monotone — the
// property granule ordering through the variable path delay rides on.
func TestPortDeparturesStrictlyIncrease(t *testing.T) {
	f := mustNew(t, Config{LeafDown: 2, LeafUp: 2}, 4, 1)
	p := f.Plane(0)
	now := des.Time(100)
	last := des.Time(-1)
	for i, bytes := range []int{0, 0, 1, 16384, 0} {
		dep := now + p.Up(1, 1, bytes, now)
		if dep <= last {
			t.Fatalf("granule %d departs at %v, not after %v", i, dep, last)
		}
		last = dep
	}
}

// TestRouteSymmetric: the uplink index depends only on the destination
// node, so both ends of a path book the same port index — the source
// leaf's uplink and the destination leaf's downlink.
func TestRouteSymmetric(t *testing.T) {
	f := mustNew(t, Config{LeafDown: 2, LeafUp: 2}, 8, 1)
	p := f.Plane(0)
	for dst := 0; dst < 8; dst++ {
		if got, want := p.Route(dst), dst%2; got != want {
			t.Fatalf("Route(%d) = %d, want %d", dst, got, want)
		}
	}
}
