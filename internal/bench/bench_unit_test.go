package bench

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
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

// TestVerbsLatencyCalibrated: the raw bench runs on the testbed when given
// no parameters, and its one-way time crosses the wire exactly once.
func TestVerbsLatencyCalibrated(t *testing.T) {
	prm := model.Testbed()
	lat := VerbsLatency(prm)
	prm.WireLatency += 100 * des.Nanosecond
	if base, slower := VerbsLatency(nil), VerbsLatency(prm); base != lat || math.Abs(slower-lat-0.1) > 1e-9 {
		t.Fatalf("raw latency %.3f µs (testbed %.3f), %.3f µs with 100 ns more wire; want equal, then +0.1", base, lat, slower)
	}
}

func TestVerbsBandwidthSeries(t *testing.T) {
	s := VerbsBandwidth(ib.OpRDMAWrite, []int{1 << 20}, nil)
	if s.Name != "RDMA Write" || len(s.Points) != 1 {
		t.Fatalf("series = %+v", s)
	}
	if v := s.Points[0].Value; !(v > 0 && v <= model.Testbed().NetBandwidth) {
		t.Fatalf("1M write = %.1f MB/s, want positive and at most NetBandwidth", v)
	}
	r := VerbsBandwidth(ib.OpRDMARead, []int{16 << 10}, nil)
	if r.Points[0].Value >= s.Points[0].Value {
		t.Fatal("16K read should trail 1M write")
	}
}

func TestMPILatencySmoke(t *testing.T) {
	s := MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportPiggyback}}, []int{4}, 5)
	if v, raw := s.Points[0].Value, VerbsLatency(nil); !(v > raw) {
		t.Fatalf("piggyback 4B latency = %.2f µs, want above raw verbs %.2f", v, raw)
	}
}

func TestMPIBandwidthSmoke(t *testing.T) {
	s := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, []int{1 << 20})
	if v := s.Points[0].Value; !(v > 0 && v <= model.Testbed().NetBandwidth) {
		t.Fatalf("zero-copy 1M bandwidth = %.1f MB/s, want positive and at most NetBandwidth", v)
	}
}

// TestCollectiveTimeObservesEachSize: CollectiveTime, like the
// point-to-point sweeps, hands Options.Observe each cluster it measures.
func TestCollectiveTimeObservesEachSize(t *testing.T) {
	calls := 0
	o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy},
		Observe: func(*cluster.Cluster) { calls++ }}
	s := CollectiveTime(o, 4, []int{4, 64}, 1, func(comm *mpi.Comm, buf mpi.Buffer) { comm.Bcast(buf, 0) })
	if calls != 2 || len(s.Points) != 2 {
		t.Fatalf("Observe called %d times for %d points, want 2 and 2", calls, len(s.Points))
	}
}

// TestFigureByID: an unknown id is an error (TestHeadlineNumbers builds
// known ones).
func TestFigureByID(t *testing.T) {
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestCollAlgSweepRejectsBadInput: a layout the cluster refuses is an
// error naming the setting, not a panic or a NaN in the table.
func TestCollAlgSweepRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name    string
		np, cpn int
		want    string
	}{
		{"one rank", 1, 1, "NP 1"},
		{"negative ranks per node", 16, -1, "CoresPerNode -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CollAlgSweep("allreduce", tc.np, tc.cpn, nil, []int{256})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// FuzzParseInts: the list parser behind enginebench -np and -shards never
// panics, every value it accepts lies in [lo, hi], and the accepted list
// printed back reads back unchanged.
func FuzzParseInts(f *testing.F) {
	for _, s := range []string{"64,256", "1", "", ",", " 4 , 8 ", "0", "-1", "2,x", "9223372036854775807", "9223372036854775808", "+3"} {
		f.Add(s, 1, 4096)
	}
	f.Add("0,1,2", 0, 2)
	f.Add("5", 5, 5)
	f.Add("3", 4, 2)
	f.Fuzz(func(t *testing.T, list string, lo, hi int) {
		ns, err := ParseInts(list, "value", lo, hi)
		if err != nil {
			return
		}
		labels := make([]string, len(ns))
		for i, n := range ns {
			if n < lo || n > hi {
				t.Fatalf("%q in [%d, %d]: accepted %d", list, lo, hi, n)
			}
			labels[i] = strconv.Itoa(n)
		}
		again, err := ParseInts(strings.Join(labels, ","), "value", lo, hi)
		if err != nil || !reflect.DeepEqual(again, ns) {
			t.Fatalf("%q: printed %v read back as %v, %v", list, labels, again, err)
		}
	})
}
