package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func TestTimeForBytes(t *testing.T) {
	// 870 MB/s: 1 MB should take ~1149.4 µs.
	d := TimeForBytes(1_000_000, 870)
	if math.Abs(d.Micros()-1149.4) > 0.5 {
		t.Fatalf("1MB @ 870MB/s = %v, want ~1149.4µs", d)
	}
	if TimeForBytes(0, 870) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
}

func TestCopyRateKnee(t *testing.T) {
	p := Testbed()
	if r := p.CopyRate(4 << 10); r != p.CopyBandwidthCached {
		t.Fatalf("small copy rate = %v, want cached %v", r, p.CopyBandwidthCached)
	}
	if r := p.CopyRate(4 << 20); r != p.CopyBandwidthMem {
		t.Fatalf("large copy rate = %v, want mem %v", r, p.CopyBandwidthMem)
	}
	mid := p.CopyRate((p.CacheKneeLow + p.CacheKneeHigh) / 2)
	if mid <= p.CopyBandwidthMem || mid >= p.CopyBandwidthCached {
		t.Fatalf("mid copy rate %v not between knees", mid)
	}
	// Paper: "memory copy bandwidth is less than 800 MB/s for large messages".
	if p.CopyBandwidthMem > 800 {
		t.Fatalf("large-message memcpy = %v MB/s, paper requires <= 800", p.CopyBandwidthMem)
	}
}

func TestCopyRateMonotone(t *testing.T) {
	p := Testbed()
	f := func(a, b uint32) bool {
		wsA, wsB := int(a%(4<<20)), int(b%(4<<20))
		if wsA > wsB {
			wsA, wsB = wsB, wsA
		}
		return p.CopyRate(wsA) >= p.CopyRate(wsB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegTimeScalesWithPages(t *testing.T) {
	p := Testbed()
	one := p.RegTime(1)
	if one != p.RegBase+p.RegPerPage {
		t.Fatalf("1-byte reg = %v", one)
	}
	big := p.RegTime(1 << 20)
	want := p.RegBase + 256*p.RegPerPage
	if big != want {
		t.Fatalf("1MB reg = %v, want %v", big, want)
	}
	if p.DeregTime(1<<20) >= big {
		t.Fatal("dereg should be cheaper than reg")
	}
}

func TestBusSoloRate(t *testing.T) {
	p := Testbed()
	e := des.NewEngine()
	bus := NewBus("b", p)
	var took des.Time
	e.Spawn("flow", func(pr *des.Proc) {
		start := pr.Now()
		bus.Transfer(pr, 1_000_000, 870)
		took = pr.Now() - start
	})
	e.Run()
	rate := 1_000_000.0 / took.Micros() // bytes/µs == MB/s
	if math.Abs(rate-870) > 5 {
		t.Fatalf("solo flow rate = %.1f MB/s, want ~870", rate)
	}
}

func TestBusContentionHarmonic(t *testing.T) {
	// Two backlogged flows at rates r1, r2 should each see ~1/(1/r1+1/r2).
	p := Testbed()
	e := des.NewEngine()
	bus := NewBus("b", p)
	const n = 2_000_000
	var t1, t2 des.Time
	e.Spawn("copy", func(pr *des.Proc) {
		bus.Transfer(pr, n, 1300)
		t1 = pr.Now()
	})
	e.Spawn("dma", func(pr *des.Proc) {
		bus.Transfer(pr, n, 870)
		t2 = pr.Now()
	})
	e.Run()
	// The slower finisher determines both flows' effective shared rate.
	last := t1
	if t2 > last {
		last = t2
	}
	rate := float64(n) / last.Micros()
	want := 1.0 / (1.0/1300 + 1.0/870) // ≈ 521
	if math.Abs(rate-want) > 25 {
		t.Fatalf("contended per-flow rate = %.1f MB/s, want ~%.1f", rate, want)
	}
}

func TestBusUtilizationStats(t *testing.T) {
	p := Testbed()
	e := des.NewEngine()
	bus := NewBus("b", p)
	e.Spawn("f", func(pr *des.Proc) { bus.Transfer(pr, 64<<10, 870) })
	e.Run()
	if bus.BusyTime() <= 0 || bus.Granules() != 4 {
		t.Fatalf("busy=%v granules=%d, want busy>0, 4 granules", bus.BusyTime(), bus.Granules())
	}
}

func TestMemcpyChargesCacheRate(t *testing.T) {
	p := Testbed()
	e := des.NewEngine()
	bus := NewBus("b", p)
	var small, large des.Time
	e.Spawn("f", func(pr *des.Proc) {
		s := pr.Now()
		bus.Memcpy(pr, 64<<10, 64<<10)
		small = pr.Now() - s
		s = pr.Now()
		bus.Memcpy(pr, 64<<10, 8<<20)
		large = pr.Now() - s
	})
	e.Run()
	if small >= large {
		t.Fatalf("cached copy (%v) should beat streaming copy (%v)", small, large)
	}
}

func TestMemoryAllocResolve(t *testing.T) {
	m := NewMemory()
	va, buf := m.Alloc(128)
	if va == 0 {
		t.Fatal("allocation at address 0")
	}
	buf[5] = 42
	got := m.MustResolve(va+5, 1)
	if got[0] != 42 {
		t.Fatal("Resolve did not return backing storage")
	}
	if _, err := m.Resolve(va, 129); err == nil {
		t.Fatal("out-of-bounds resolve succeeded")
	}
	if _, err := m.Resolve(va+120, 16); err == nil {
		t.Fatal("overhanging resolve succeeded")
	}
	if _, err := m.Resolve(1, 1); err == nil {
		t.Fatal("unmapped low address resolved")
	}
}

func TestMemoryAllocationsDisjoint(t *testing.T) {
	m := NewMemory()
	type region struct {
		va uint64
		n  int
	}
	var regs []region
	for i := 1; i <= 50; i++ {
		va, _ := m.Alloc(i * 17)
		regs = append(regs, region{va, i * 17})
	}
	for i, a := range regs {
		for j, b := range regs {
			if i == j {
				continue
			}
			if a.va < b.va+uint64(b.n) && b.va < a.va+uint64(a.n) {
				t.Fatalf("allocations %d and %d overlap", i, j)
			}
		}
	}
}

func TestMemoryGuardGap(t *testing.T) {
	m := NewMemory()
	va, _ := m.Alloc(64)
	m.Alloc(64)
	// One byte past the first allocation must fault, not bleed into the next.
	if _, err := m.Resolve(va+64, 1); err == nil {
		t.Fatal("read past allocation end succeeded")
	}
}

// Property: Resolve(va+k, n) for any in-bounds k, n aliases Alloc's slice.
func TestMemoryRemap(t *testing.T) {
	m := NewMemory()
	a, abuf := m.Alloc(100)
	b, _ := m.Alloc(10)
	abuf[99] = 7
	a2 := m.Remap(a)
	if a2 <= b {
		t.Fatalf("remapped to %#x, not past the latest allocation %#x", a2, b)
	}
	if _, err := m.Resolve(a, 1); err == nil {
		t.Error("old range still resolves")
	}
	if got := m.MustResolve(a2, 100); &got[0] != &abuf[0] || got[99] != 7 {
		t.Error("remap did not keep the storage")
	}
	if _, err := m.Resolve(b, 10); err != nil {
		t.Errorf("neighbour lost: %v", err)
	}
	if c, _ := m.Alloc(8); c <= a2 {
		t.Errorf("next allocation %#x overlaps the remapped range at %#x", c, a2)
	}
}

func TestResolveAliasProperty(t *testing.T) {
	m := NewMemory()
	va, buf := m.Alloc(4096)
	f := func(k, n uint16) bool {
		off, ln := int(k)%4096, int(n)%512
		if off+ln > 4096 {
			return true
		}
		if ln == 0 {
			return true
		}
		s, err := m.Resolve(va+uint64(off), ln)
		if err != nil {
			return false
		}
		s[0] = byte(off)
		return buf[off] == byte(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeConstruction(t *testing.T) {
	p := Testbed()
	n := NewNode(3, p)
	if n.ID != 3 || n.Bus == nil || n.Mem == nil || n.Params != p {
		t.Fatal("node not fully constructed")
	}
	if n.Bus.Name() != fmt.Sprintf("node%d.bus", 3) {
		t.Fatalf("bus name = %q", n.Bus.Name())
	}
}
