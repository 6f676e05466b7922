package nas

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// Class S smoke tests: every benchmark must verify on every figure
// transport at both node counts the paper uses.
func TestClassSAllBenchmarksAllTransports(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			nps := []int{4, 8}
			if SquareOnly(name) {
				nps = []int{4}
			}
			for _, np := range nps {
				for _, tr := range []cluster.Transport{cluster.TransportPipeline, cluster.TransportZeroCopy, cluster.TransportCH3} {
					res := Run(name, ClassS, cluster.Config{NP: np, Transport: tr})
					if !res.Verified {
						t.Errorf("%s.S np=%d %v: verification failed", name, np, tr)
					}
					if res.Time <= 0 {
						t.Errorf("%s.S np=%d %v: nonpositive time %v", name, np, tr, res.Time)
					}
				}
			}
		})
	}
}

// TestClassSBasicTransportWorks runs CG, the most communication-diverse
// small case, on the configurations beyond the figures' class A and B
// runs: the basic design the paper abandons (it must be correct, only
// slower), the direct CH3 design at class S, and the zero-copy design at
// scale under lazy connections, the SRQ eager pool and two rails. Every
// row must verify.
func TestClassSBasicTransportWorks(t *testing.T) {
	zc, lazy := cluster.TransportZeroCopy, cluster.ConnectLazy
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"basic/np4", cluster.Config{NP: 4, Transport: cluster.TransportBasic}},
		{"ch3/np4", cluster.Config{NP: 4, Transport: cluster.TransportCH3}},
		{"lazy/np16", cluster.Config{NP: 16, Transport: zc, ConnectMode: lazy}},
		{"lazy-srq/np16", scenario.LazySRQ.On(cluster.Config{NP: 16})},
		{"rails2/np8", cluster.Config{NP: 8, Transport: zc, RailsPerNode: 2}},
		{"rails2-lazy/np8", cluster.Config{NP: 8, Transport: zc, RailsPerNode: 2, ConnectMode: lazy}},
		{"rails2-lazy-srq/np8", scenario.LazySRQ.On(cluster.Config{NP: 8, RailsPerNode: 2})},
		{"rails1/np4", cluster.Config{NP: 4, Transport: zc, RailsPerNode: 1}},
		{"rails2/np4", cluster.Config{NP: 4, Transport: zc, RailsPerNode: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if res := Run("cg", ClassS, tc.cfg); !res.Verified {
				t.Fatalf("%v", res)
			}
		})
	}
}

func TestDeterministicRuntime(t *testing.T) {
	a := Run("mg", ClassS, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	b := Run("mg", ClassS, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	if a.Time != b.Time {
		t.Fatalf("nondeterministic runtime: %v vs %v", a.Time, b.Time)
	}
}

func TestGridFactorizations(t *testing.T) {
	cases := []struct{ np, rows, cols int }{
		{2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4},
	}
	for _, c := range cases {
		r, co := grid2(c.np)
		if r != c.rows || co != c.cols {
			t.Errorf("grid2(%d) = %d×%d, want %d×%d", c.np, r, co, c.rows, c.cols)
		}
	}
	px, py, pz := grid3(8)
	if px*py*pz != 8 || px != 2 || py != 2 || pz != 2 {
		t.Errorf("grid3(8) = %d,%d,%d", px, py, pz)
	}
	px, py, pz = grid3(4)
	if px*py*pz != 4 {
		t.Errorf("grid3(4) product = %d", px*py*pz)
	}
	if isqrt(4) != 2 || isqrt(8) != 0 || isqrt(16) != 4 {
		t.Error("isqrt broken")
	}
}

// TestChecksumDetectsCorruption flips every bit of every buffer length that
// exercises the 32-byte blocks, the byte tail and both together, and one bit
// in each region of a long buffer.
func TestChecksumDetectsCorruption(t *testing.T) {
	flips := func(n int, at []int) {
		b := make([]byte, n)
		fill(b, 42)
		c1 := checksum(b)
		for _, bit := range at {
			b[bit/8] ^= 1 << (bit % 8)
			if checksum(b) == c1 {
				t.Errorf("len %d: checksum missed a flip of bit %d", n, bit)
			}
			b[bit/8] ^= 1 << (bit % 8)
		}
		if checksum(b) != c1 {
			t.Errorf("len %d: checksum is not a function of the bytes", n)
		}
		if n > 0 && checksum(b[:n-1]) == c1 {
			t.Errorf("len %d: checksum missed the loss of the last byte", n)
		}
	}
	for n := 0; n <= 40; n++ {
		every := make([]int, n*8)
		for i := range every {
			every[i] = i
		}
		flips(n, every)
	}
	const long = 1<<20 + 5
	flips(long, []int{0, 63, 64, 8*31 + 7, 8 * (long / 2), 8*(long-6) + 7, 8 * (long - 5), 8*long - 1})
}

// TestChecksumDetectsReordering: data that arrives complete but misplaced
// — two words that traded lanes, two blocks that traded places, even ones
// that differ only in their top bits — must not verify.
func TestChecksumDetectsReordering(t *testing.T) {
	swap := func(b []byte, i, j, n int) {
		tmp := append([]byte(nil), b[i:i+n]...)
		copy(b[i:i+n], b[j:j+n])
		copy(b[j:j+n], tmp)
	}
	b := make([]byte, 4096)
	fill(b, 7)
	want := checksum(b)
	for _, c := range []struct {
		what    string
		i, j, n int
	}{
		{"words in lanes 0 and 1 of one block", 64, 72, 8},
		{"words in lanes 1 and 3 of different blocks", 8, 1024 + 24, 8},
		{"adjacent 32-byte blocks", 128, 160, 32},
		{"distant 32-byte blocks", 0, 4064, 32},
	} {
		swap(b, c.i, c.j, c.n)
		if checksum(b) == want {
			t.Errorf("checksum missed a swap of %s", c.what)
		}
		swap(b, c.i, c.j, c.n)
	}

	z := make([]byte, 96)
	z[7] = 0x80 // block 0, lane 0, top bit
	one := checksum(z)
	z[7], z[64+7] = 0, 0x80 // the same word two blocks later
	if checksum(z) == one {
		t.Error("checksum cannot tell where a word's top bit was set")
	}
}

// TestFillDeterministicPerSeed: a seed names one pattern, whatever the
// length it is cut to, and different seeds name different ones.
func TestFillDeterministicPerSeed(t *testing.T) {
	a, b := make([]byte, 1003), make([]byte, 1003)
	fill(a, 5)
	fill(b, 5)
	if !bytes.Equal(a, b) {
		t.Error("fill(5) twice gave different bytes")
	}
	short := make([]byte, 203)
	fill(short, 5)
	if !bytes.Equal(short, a[:203]) {
		t.Error("fill(5) over 203 bytes is not a prefix of fill(5) over 1003")
	}
	fill(b, 6)
	if bytes.Equal(a, b) {
		t.Error("fill(5) and fill(6) gave the same bytes")
	}
	var zeros int
	for _, c := range a {
		if c == 0 {
			zeros++
		}
	}
	if zeros > len(a)/16 {
		t.Errorf("fill left %d of %d bytes zero", zeros, len(a))
	}
}

// TestTransportOrderingClassS: at smoke scale every message sits below
// the zero-copy threshold, so the two designs must essentially tie (the
// zero-copy design pays only its per-call bookkeeping, §5).
func TestTransportOrderingClassS(t *testing.T) {
	for _, name := range []string{"ft", "is", "mg"} {
		pipe := Run(name, ClassS, cluster.Config{NP: 4, Transport: cluster.TransportPipeline})
		zc := Run(name, ClassS, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
		ratio := pipe.Time / zc.Time
		// FT's class-S transpose blocks already clear the zero-copy
		// threshold, so pipelining may trail; it must never win by more
		// than the zero-copy design's bookkeeping overhead.
		if ratio < 0.97 {
			t.Errorf("%s.S: pipeline/zerocopy = %.3f; pipelining should not win", name, ratio)
		}
	}
}

// TestTransportOrderingClassA checks the paper's Figure 16 result on the
// most bandwidth-bound benchmark: at class A, pipelining is strictly worst
// and CH3 is within a whisker of the RDMA-Channel zero-copy design.
func TestTransportOrderingClassA(t *testing.T) {
	if testing.Short() {
		t.Skip("class A run skipped in -short")
	}
	pipe := Run("ft", ClassA, cluster.Config{NP: 4, Transport: cluster.TransportPipeline})
	zc := Run("ft", ClassA, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	ch3 := Run("ft", ClassA, cluster.Config{NP: 4, Transport: cluster.TransportCH3})
	if !pipe.Verified || !zc.Verified || !ch3.Verified {
		t.Fatal("class A verification failed")
	}
	if pipe.Time <= zc.Time {
		t.Errorf("ft.A: pipelining (%v) should be slower than zero-copy (%v)", pipe.Time, zc.Time)
	}
	if r := ch3.Time / zc.Time; r < 0.90 || r > 1.02 {
		t.Errorf("ft.A: ch3/rdma = %.3f, paper: CH3 within ~1%% better", r)
	}
}

// TestClassSAllBenchmarksSMPLayouts: every kernel must verify when the
// same ranks are packed onto multi-core nodes — co-located pairs over
// shared memory, remote pairs over InfiniBand, collectives hierarchical.
func TestClassSAllBenchmarksSMPLayouts(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			np := 8
			if SquareOnly(name) {
				np = 4
			}
			for _, ppn := range []int{2, 4, np} {
				res := Run(name, ClassS, cluster.Config{
					NP:           np,
					CoresPerNode: ppn,
					Transport:    cluster.TransportZeroCopy,
				})
				if !res.Verified {
					t.Errorf("%s.S np=%d ppn=%d: verification failed", name, np, ppn)
				}
				if res.Time <= 0 {
					t.Errorf("%s.S np=%d ppn=%d: nonpositive time %v", name, np, ppn, res.Time)
				}
			}
		})
	}
}

// TestParseClass: a class is exactly one of the three letters; anything
// else — empty, longer, lower case, another class — is an error, never an
// index into the string.
func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
		ok   bool
	}{
		{"S", ClassS, true},
		{"A", ClassA, true},
		{"B", ClassB, true},
		{"", 0, false},
		{"AB", 0, false},
		{"Q", 0, false},
		{"s", 0, false},
		{" A", 0, false},
	} {
		got, err := ParseClass(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseClass(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
