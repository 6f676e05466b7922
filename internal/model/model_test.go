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

// TestSlottedRegion: a slotted region is mapped and checkable in full, but
// the host backs each slot only up to the furthest byte an access reached,
// in 64-byte steps that never shrink; unbacked bytes read as zero, growth
// keeps what was written, and no access may cross a slot.
func TestSlottedRegion(t *testing.T) {
	m := NewMemory()
	va := m.AllocSlots(4, 8192)
	if err := m.Check(va, 4*8192); err != nil {
		t.Fatalf("Check of the whole region: %v", err)
	}
	if err := m.Check(va, 4*8192+1); err == nil {
		t.Error("Check past the region succeeded")
	}
	if got := m.Backed(va); got != 0 {
		t.Fatalf("backed %d bytes after Check, want 0", got)
	}
	slot1 := va + 8192
	b := m.MustResolve(slot1+100, 10)
	for i, x := range b {
		if x != 0 {
			t.Fatalf("untouched byte %d reads %d", i, x)
		}
	}
	if got := m.Backed(va); got != 128 {
		t.Errorf("reaching byte 110 backs %d bytes, want 128", got)
	}
	b[0] = 9
	if got := m.MustResolve(slot1, 1000); got[100] != 9 {
		t.Error("growth lost an earlier byte")
	}
	if got := m.Backed(va); got != 1024 {
		t.Errorf("reaching byte 1000 backs %d bytes, want 1024", got)
	}
	m.MustResolve(slot1, 1)
	if got := m.Backed(slot1 + 5000); got != 1024 {
		t.Errorf("a shorter access shrank the backing to %d bytes", got)
	}
	if _, err := m.Resolve(slot1-4, 8); err == nil {
		t.Error("a range across a slot boundary resolved")
	}
	if _, err := m.Resolve(va+4*8192-4, 8); err == nil {
		t.Error("a range past the region resolved")
	}
	odd := m.AllocSlots(2, 100)
	m.MustResolve(odd+100, 90)
	if got := m.Backed(odd); got != 100 {
		t.Errorf("a 100-byte slot backs %d bytes, want at most its size", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Remap of a slotted region was not refused")
		}
	}()
	m.Remap(va)
}
