package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/mpi"
)

func TestSizesPow4(t *testing.T) {
	got := sizesPow4(4, 1<<20)
	want := []int{4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", got, want)
		}
	}
}

func TestWindowFor(t *testing.T) {
	if w := windowFor(4); w != 64 {
		t.Errorf("windowFor(4) = %d, want 64 (cap)", w)
	}
	if w := windowFor(1 << 20); w != 8 {
		t.Errorf("windowFor(1M) = %d, want 8 (floor)", w)
	}
	if w := windowFor(128 << 10); w != 32 {
		t.Errorf("windowFor(128K) = %d, want 32", w)
	}
}

func TestFmtSize(t *testing.T) {
	cases := map[int]string{4: "4", 1 << 10: "1K", 16 << 10: "16K", 1 << 20: "1M", 1000: "1000"}
	for n, want := range cases {
		if got := fmtSize(n); got != want {
			t.Errorf("fmtSize(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFormatFigureAlignsSeries(t *testing.T) {
	f := Figure{
		ID: "x", Title: "T", XLabel: "size", YLabel: "bw",
		Series: []Series{
			{Name: "short", Points: []Point{{Size: 4, Value: 1}}},
			{Name: "long", Points: []Point{{Size: 4, Value: 2}, {Size: 16, Value: 3}}},
		},
	}
	out := FormatFigure(f)
	if !strings.Contains(out, "short") || !strings.Contains(out, "long") {
		t.Fatalf("missing headers: %q", out)
	}
	// The short series pads with '-' on the longer row set.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing padding: %q", out)
	}
	if !strings.Contains(out, "16") {
		t.Fatalf("row sizes should come from the longest series: %q", out)
	}
}

func TestVerbsLatencyCalibrated(t *testing.T) {
	lat := VerbsLatency(nil)
	if lat < 5.5 || lat > 6.3 {
		t.Fatalf("raw latency = %.2f, want ~5.9 µs", lat)
	}
}

func TestVerbsBandwidthSeries(t *testing.T) {
	s := VerbsBandwidth(ib.OpRDMAWrite, []int{1 << 20}, nil)
	if s.Name != "RDMA Write" || len(s.Points) != 1 {
		t.Fatalf("series = %+v", s)
	}
	if v := s.Points[0].Value; v < 840 || v > 875 {
		t.Fatalf("1M write = %.1f, want ~870 MB/s", v)
	}
	r := VerbsBandwidth(ib.OpRDMARead, []int{16 << 10}, nil)
	if r.Points[0].Value >= s.Points[0].Value {
		t.Fatal("16K read should trail 1M write")
	}
}

func TestMPILatencySmoke(t *testing.T) {
	s := MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportPiggyback}}, []int{4}, 5)
	if v := s.Points[0].Value; v < 6.8 || v > 8.4 {
		t.Fatalf("piggyback 4B latency = %.2f, want ~7.4-7.6 µs", v)
	}
}

func TestMPIBandwidthSmoke(t *testing.T) {
	s := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, []int{1 << 20})
	if v := s.Points[0].Value; v < 800 || v > 875 {
		t.Fatalf("zero-copy 1M bandwidth = %.1f, want ~840-857 MB/s", v)
	}
}

func TestFigureByID(t *testing.T) {
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	f, err := FigureByID("baseline")
	if err != nil || f.ID != "baseline" {
		t.Fatalf("baseline: %v %v", f.ID, err)
	}
}

// TestCollAlgSweepRejectsBadInput: a layout the cluster refuses or a
// non-positive call count is an error naming the setting, not a panic or a
// NaN in the table.
func TestCollAlgSweepRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name         string
		np, cpn, its int
		want         string
	}{
		{"one rank", 1, 1, 5, "NP 1"},
		{"negative ranks per node", 16, -1, 5, "CoresPerNode -1"},
		{"zero calls per point", 16, 1, 0, "0 measured calls"},
		{"negative calls per point", 16, 1, -3, "-3 measured calls"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CollAlgSweep("allreduce", tc.np, tc.cpn, nil, []int{256}, tc.its, mpi.Tuning{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// FuzzParseNets: the -net parser never panics, and every list it accepts
// names only runnable nets and reads back unchanged from its own labels.
func FuzzParseNets(f *testing.F) {
	for _, s := range []string{"flat", "fattree-d4-u1", "flat,fattree-d4-u1", "", ",", "fattree-d0-u1", "fattree-d4", "fattree-d+4-u01"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		nets, err := ParseNets(list)
		if err != nil {
			return
		}
		labels := make([]string, len(nets))
		for i, sw := range nets {
			if sw != nil && (sw.LeafDown < 1 || sw.LeafUp < 1) {
				t.Fatalf("%q: accepted %+v", list, *sw)
			}
			labels[i] = netLabel(sw)
		}
		again, err := ParseNets(strings.Join(labels, ","))
		if err != nil || !reflect.DeepEqual(again, nets) {
			t.Fatalf("%q: labels %v read back as %v, %v", list, labels, again, err)
		}
	})
}

// FuzzParseSizes: the -sizes parser never panics, and every size it
// accepts is positive and reads back unchanged from its own label; a
// K/M product past the int range is refused, not wrapped.
func FuzzParseSizes(f *testing.F) {
	for _, s := range []string{"4096,64K,1M", "4", "", ",", "0", "-1K", "1G", "17592186044416M", "8796093022208M", "8589934591M"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		sizes, err := ParseSizes(list)
		if err != nil {
			return
		}
		labels := make([]string, len(sizes))
		for i, n := range sizes {
			if n <= 0 {
				t.Fatalf("%q: accepted size %d", list, n)
			}
			labels[i] = fmtSize(n)
		}
		again, err := ParseSizes(strings.Join(labels, ","))
		if err != nil || !reflect.DeepEqual(again, sizes) {
			t.Fatalf("%q: labels %v read back as %v, %v", list, labels, again, err)
		}
	})
}
