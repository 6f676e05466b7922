// Package repro's root tests and benchmarks hold what the figure gate does
// not. Every figure of the paper's evaluation is regenerated, and compared
// point for point with BENCH_paper.json, by
//
//	go run ./cmd/mpich2ib-bench -fig all -compare BENCH_paper.json
//
// (DESIGN.md §4 indexes the figures by -fig id). What stays here asserts
// something or is not gated: the paper's abstract and the SMP extension's
// claims as tests, the design-choice ablations, and the smokes with a bar
// of their own:
//
//	go test -run Headline .
//	go test -bench=Ablation -v
//	go test -bench='NASCG|Footprint|RailBandwidth' -benchtime=1x -run '^$'
//
// Simulated results are deterministic; wall-clock ns/op only reflects
// simulation effort.
package repro

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

// reportSeries attaches a figure's series endpoints as benchmark metrics.
// Metric units must not contain whitespace, so series names are slugged.
func reportSeries(b *testing.B, f bench.Figure) {
	b.Helper()
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		name := strings.ReplaceAll(s.Name, " ", "-")
		b.ReportMetric(last.Value, name+"@"+lastLabel(f))
	}
	if testing.Verbose() {
		b.Log("\n" + bench.FormatFigure(f))
	}
}

func lastLabel(f bench.Figure) string {
	if len(f.YLabel) > 0 && f.YLabel[0] == 't' {
		return "µs"
	}
	return "MB/s"
}

// BenchmarkAblationTailThreshold sweeps the delayed tail-update batch (§4.3).
func BenchmarkAblationTailThreshold(b *testing.B) {
	var f bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationTailThreshold()
	}
	reportSeries(b, f)
}

// BenchmarkAblationRegCache compares zero-copy with and without the
// pin-down cache (§5).
func BenchmarkAblationRegCache(b *testing.B) {
	var f bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationRegCache()
	}
	b.ReportMetric(f.Series[0].Points[len(f.Series[0].Points)-1].Value, "cache-1M-MB/s")
	b.ReportMetric(f.Series[1].Points[len(f.Series[1].Points)-1].Value, "nocache-1M-MB/s")
}

// BenchmarkAblationZeroCopyThreshold sweeps the eager→zero-copy switch.
func BenchmarkAblationZeroCopyThreshold(b *testing.B) {
	var f bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationZCThreshold()
	}
	reportSeries(b, f)
}

// BenchmarkAblationOutstandingReads raises the HCA IRD limit.
func BenchmarkAblationOutstandingReads(b *testing.B) {
	var f bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationOutstandingReads()
	}
	reportSeries(b, f)
}

// BenchmarkAblationRingSize sweeps the shared ring size (§4.4).
func BenchmarkAblationRingSize(b *testing.B) {
	var f bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationRingSize()
	}
	reportSeries(b, f)
}

// BenchmarkAblationCollAlg sweeps every registered collective algorithm
// per message size on the 4-node × 4-core layout — the data behind the
// per-communicator tuning table (internal/mpi/algorithms.go).
func BenchmarkAblationCollAlg(b *testing.B) {
	var f bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationCollAlg()
	}
	reportSeries(b, f)
}

// BenchmarkFootprint regenerates the connection-scalability figures
// (DESIGN.md §9) at CI-smoke scale: established connections and
// per-process eager-buffer memory, eager mesh vs lazy/SRQ, plus the
// setup-latency ablation. The full 8…512 sweep is
// `mpich2ib-bench -connect=eager,lazy`.
func BenchmarkFootprint(b *testing.B) {
	variants, err := bench.ParseConnectModes("eager,lazy")
	if err != nil {
		b.Fatal(err)
	}
	nps := []int{8, 16, 32}
	var figs []bench.Figure
	for i := 0; i < b.N; i++ {
		figs = bench.FootprintFigures(variants, nps)
	}
	for _, f := range figs {
		for _, s := range f.Series {
			last := s.Points[len(s.Points)-1]
			unit := "pairs"
			if f.ID == "footprint-mem" {
				unit = "KB/proc"
			}
			b.ReportMetric(last.Value, strings.ReplaceAll(s.Name, "/", "-")+"@"+unit)
		}
		if testing.Verbose() {
			b.Log("\n" + bench.FormatFigure(f))
		}
	}
	setup := bench.AblationConnectSetup(variants)
	for _, s := range setup.Series {
		b.ReportMetric(s.Points[0].Value, s.Name+"-first-µs")
	}
}

// BenchmarkNASCG runs the CG kernel (class S) over the basic, zero-copy
// and CH3 transports: the sub-communicator code path — Comm_split row and
// transpose-pair communicators — in CI-smoke form, checksum-verified.
func BenchmarkNASCG(b *testing.B) {
	transports := []cluster.Transport{
		cluster.TransportBasic, cluster.TransportZeroCopy, cluster.TransportCH3,
	}
	for i := 0; i < b.N; i++ {
		for _, tr := range transports {
			res := nas.Run("cg", nas.ClassS, cluster.Config{NP: 4, Transport: tr})
			if !res.Verified {
				b.Fatalf("cg.S on %v failed checksum verification", tr)
			}
			b.ReportMetric(res.Time, tr.String()+"-s")
		}
	}
}

// TestSMPHeadline is the SMP scenario's acceptance gate in executable
// form: the shared-memory channel must beat InfiniBand for small
// messages, and on a 4-node × 4-core layout the hierarchical broadcast
// must beat the flat binomial (rooted off the node boundary; see
// bench.AblationCollAlg's layout for why the root matters).
func TestSMPHeadline(t *testing.T) {
	f := bench.Fig3Latency()
	shm, ib := f.Series[0].Points[0].Value, f.Series[1].Points[0].Value
	if shm <= 0 || ib <= 0 || shm >= ib {
		t.Errorf("small-message latency: shm %.2f µs vs IB %.2f µs; shm must win", shm, ib)
	}

	bcast := func(alg string, size int) float64 {
		o := bench.Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 4,
			Tuning: &mpi.Tuning{Bcast: alg}}}
		return bench.CollectiveTime(o, 16, []int{size}, 10, func(comm *mpi.Comm, buf mpi.Buffer) {
			comm.Bcast(buf, 5)
		}).Points[0].Value
	}
	for _, size := range []int{4, 16 << 10} {
		hier, flat := bcast("hier-leader", size), bcast("binomial", size)
		if hier <= 0 || flat <= 0 || hier >= flat {
			t.Errorf("%dB bcast on 4×4: hier %.2f µs vs flat %.2f µs; hier must win", size, hier, flat)
		}
	}
}

// TestHeadlineNumbers is the repository's single most important test: the
// paper's abstract in executable form.
func TestHeadlineNumbers(t *testing.T) {
	raw := bench.VerbsLatency(nil)
	if raw < 5.5 || raw > 6.3 {
		t.Errorf("raw latency = %.2f µs, paper: 5.9", raw)
	}
	f := bench.Headline()
	lat := f.Series[0].Points[0].Value
	bw := f.Series[1].Points[0].Value
	if lat < 7.2 || lat > 8.2 {
		t.Errorf("MPI latency = %.2f µs, paper: 7.6", lat)
	}
	if bw < 820 || bw > 875 {
		t.Errorf("MPI bandwidth = %.1f MB/s, paper: 857", bw)
	}
}

// BenchmarkRailBandwidth is the multi-rail CI smoke (DESIGN.md §10): the
// zero-copy design's large-message bandwidth at 1, 2 and 4 rails per
// node. The 2-rail point must clear 1.8x the single-rail ceiling — the
// acceptance bar of the striped-rendezvous work.
func BenchmarkRailBandwidth(b *testing.B) {
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = bench.RailBandwidth([]int{1, 2, 4}, rdmachan.RailRoundRobin)
	}
	byRails := map[string]float64{}
	for _, s := range fig.Series {
		last := s.Points[len(s.Points)-1] // largest message
		byRails[s.Name] = last.Value
		b.ReportMetric(last.Value, s.Name+"-MB/s")
	}
	if ratio := byRails["rails=2"] / byRails["rails=1"]; ratio < 1.8 {
		b.Fatalf("rails=2 large-message bandwidth only %.2fx of rails=1", ratio)
	}
	if testing.Verbose() {
		b.Log("\n" + bench.FormatFigure(fig))
	}
}
