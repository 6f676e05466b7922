package bench

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// claim is one number the paper states: the point at size of a series of
// figure fig, the paper's value, and the band [lo, hi] the model's point
// must fall in, never wider than ±10 % of the paper's value
// (BENCHMARK.json's anchor tolerance).
type claim struct {
	fig, series   string
	size          int
	paper, lo, hi float64
}

// claims is the paper's numbers, each written once, a figure's claims
// together. DESIGN §4 quotes them in this order (TestDocsQuoteClaims).
var claims = []claim{
	{"baseline", "latency µs", 4, 5.9, 5.6, 6.2},
	{"baseline", "bandwidth MB/s", 1 << 20, 870, 840, 875},
	{"headline", "latency µs", 4, 7.6, 7.2, 8.2},
	{"headline", "bandwidth MB/s", 1 << 20, 857, 820, 875},
	{"fig4", "basic", 4, 18.6, 16.74, 20.46},
	{"fig5", "basic", 64 << 10, 230, 207, 253},
	{"fig6", "basic", 4, 18.6, 16.74, 20.46},
	{"fig6", "piggyback", 4, 7.4, 6.8, 8.14},
	{"fig11", "rdma-channel-zerocopy", 1 << 20, 857, 820, 875},
	{"fig13", "CH3 ZC", 4, 7.4, 6.8, 8.14},
	{"fig13", "RDMA Chan ZC", 4, 7.6, 7.2, 8.2},
}

// built holds the figures the tests have built, by figure id: the claims
// and the two-rank rows share figures, and each build is a full run.
var built = map[string]Figure{}

// buildOnce returns the figure id, building it with make on first use.
func buildOnce(id string, make func() Figure) Figure {
	f, ok := built[id]
	if !ok {
		f = make()
		built[id] = f
	}
	return f
}

// claimPoints returns the value of the point each claim names in curves.
func claimPoints(t *testing.T, curves []Curve) []float64 {
	t.Helper()
	vals := make([]float64, len(claims))
	for i, c := range claims {
		k := slices.IndexFunc(curves, func(cv Curve) bool { return cv.Figure == c.fig && cv.Series == c.series })
		j := -1
		if k >= 0 {
			j = slices.IndexFunc(curves[k].Points, func(p Point) bool { return p.Size == c.size })
		}
		if j < 0 {
			t.Fatalf("no %s %q point at %s", c.fig, c.series, fmtSize(c.size))
		}
		vals[i] = curves[k].Points[j].Value
	}
	return vals
}

// TestHeadlineNumbers is the repository's single most important test: the
// paper's stated numbers in executable form. It builds every claimed
// figure once, holds each claim to its band and logs its relative error,
// so the known misses stay in view (-v). It also checks the one relation
// the design ladder states between two claims: zero-copy adds a small
// latency step over piggybacking, at most 0.8 µs.
func TestHeadlineNumbers(t *testing.T) {
	var figs []Figure
	for _, c := range claims {
		if len(figs) == 0 || figs[len(figs)-1].ID != c.fig {
			figs = append(figs, buildOnce(c.fig, func() Figure {
				f, err := FigureByID(c.fig)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}))
		}
	}
	got := map[string]float64{}
	for i, v := range claimPoints(t, Curves(figs...).Runs) {
		c := claims[i]
		got[c.fig+"/"+c.series] = v
		t.Logf("%-8s %-21s %4s: model %6.1f, paper %6.1f, error %+5.1f %%",
			c.fig, c.series, fmtSize(c.size), v, c.paper, 100*(v-c.paper)/c.paper)
		if c.lo < 0.9*c.paper-1e-9 || c.hi > 1.1*c.paper+1e-9 {
			t.Errorf("%s %s: band [%g, %g] is wider than ±10 %% of %g", c.fig, c.series, c.lo, c.hi, c.paper)
		}
		if !(v >= c.lo && v <= c.hi) {
			t.Errorf("%s %s = %.2f, outside [%g, %g]; paper: %g", c.fig, c.series, v, c.lo, c.hi, c.paper)
		}
	}
	if d := got["headline/latency µs"] - got["fig6/piggyback"]; !(d >= 0 && d <= 0.8) {
		t.Errorf("zero-copy minus piggyback latency = %.2f µs, want 0 to 0.8", d)
	}
}

// predicate is one qualitative claim of the paper over the figure fig: eval
// returns what the figure shows for it and whether the claim holds.
type predicate struct {
	name, fig string
	eval      func(f Figure) (string, bool)
}

// predicates are the paper's qualitative claims, a figure's together.
var predicates = []predicate{
	{"16 KB chunks are within 3 % of the best chunk size at every message size", "fig9",
		func(f Figure) (string, bool) {
			pts, worst, at, by := seriesOf(f, "16K").Points, 1.0, 0, ""
			for _, p := range pts {
				best, name := 0.0, ""
				for _, s := range f.Series {
					if v := pointOf(f, s.Name, p.Size); v > best {
						best, name = v, s.Name
					}
				}
				if r := p.Value / best; r < worst {
					worst, at, by = r, p.Size, name
				}
			}
			return fmt.Sprintf("16K at worst %.4f of the best (%s chunks, %s messages)", worst, by, fmtSize(at)),
				len(pts) > 0 && worst >= 0.97
		}},
	{"pipelining droops at 1 MB below its own peak and below zero-copy", "fig11",
		func(f Figure) (string, bool) {
			peak := 0.0
			for _, p := range seriesOf(f, "pipeline").Points {
				peak = max(peak, p.Value)
			}
			pipe, zc := pointOf(f, "pipeline", 1<<20), pointOf(f, "rdma-channel-zerocopy", 1<<20)
			return fmt.Sprintf("pipeline %.1f (peak %.1f), zero-copy %.1f MB/s", pipe, peak, zc), pipe < peak && pipe < zc
		}},
	{"CH3 beats the RDMA Channel at 64 KB", "fig14",
		func(f Figure) (string, bool) {
			ch3, rc := pointOf(f, "CH3 ZC", 64<<10), pointOf(f, "RDMA Chan ZC", 64<<10)
			return fmt.Sprintf("CH3 %.1f vs RDMA Chan %.1f MB/s", ch3, rc), ch3 > rc
		}},
	{"RDMA write beats RDMA read at 64 KB", "fig15",
		func(f Figure) (string, bool) {
			w, r := pointOf(f, "RDMA Write", 64<<10), pointOf(f, "RDMA Read", 64<<10)
			return fmt.Sprintf("write %.1f vs read %.1f MB/s", w, r), w > r
		}},
	{"pipelining is the slowest design on NAS class A/4, and CH3 is within 5 % of the RDMA Channel", "fig16",
		func(f Figure) (string, bool) {
			rc := seriesOf(f, "RDMA Chan").Points
			pipe, ch3 := geoMeanRatio(seriesOf(f, "Pipelining").Points, rc), geoMeanRatio(seriesOf(f, "CH3").Points, rc)
			return fmt.Sprintf("geometric means pipelining/RDMA %.3f, CH3/RDMA %.3f", pipe, ch3),
				pipe > 1 && math.Abs(ch3-1) <= 0.05
		}},
}

// seriesOf returns the series of f named name, empty if there is none.
func seriesOf(f Figure, name string) Series {
	if i := slices.IndexFunc(f.Series, func(s Series) bool { return s.Name == name }); i >= 0 {
		return f.Series[i]
	}
	return Series{}
}

// pointOf returns the value at size of the series of f named name, NaN if
// there is no such point (which fails every comparison).
func pointOf(f Figure, name string, size int) float64 {
	pts := seriesOf(f, name).Points
	if i := slices.IndexFunc(pts, func(p Point) bool { return p.Size == size }); i >= 0 {
		return pts[i].Value
	}
	return math.NaN()
}

// TestPaperPredicates holds every qualitative claim of the paper to the
// figure it is about, as BENCH_figures.json pins it (the figure gate holds
// the file to what the code prints, so a change that breaks a claim fails
// here when it regenerates the file), and logs what each shows (-v), so a
// miss is listed with its numbers.
func TestPaperPredicates(t *testing.T) {
	base, err := readReport[Curve](filepath.Join(root, "BENCH_figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range predicates {
		f := Figure{ID: pr.fig}
		for _, c := range base.Runs {
			if c.Figure == pr.fig {
				f.Series = append(f.Series, Series{Name: c.Series, Points: c.Points})
			}
		}
		got, ok := pr.eval(f)
		t.Logf("%-6s %s: %s", pr.fig, pr.name, got)
		if !ok {
			t.Errorf("%s: %s does not hold: %s", pr.fig, pr.name, got)
		}
	}
}

// TestTwoRankRowsMatchBaseline builds every two-rank row and holds it to
// BENCH_figures.json exactly: each series under its name, every point, and
// as many series as the baseline holds for the figure. A slip in a row's
// sizes, names or configurations fails here, not only in the -fig all gate.
func TestTwoRankRowsMatchBaseline(t *testing.T) {
	base, err := readReport[Curve](filepath.Join(root, "BENCH_figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range twoRankRows {
		for _, err := range Curves(buildOnce(r.id, r.figure)).compare(base, 0) {
			t.Error(err)
		}
	}
}

// TestSMPHeadline is the SMP scenario's acceptance gate in executable
// form (shmchan's TestIntraNodeFasterThanInterNode holds its other claim,
// shm beating InfiniBand for small messages): on a 4-node × 4-core layout
// the hierarchical broadcast must beat the flat binomial (rooted off the
// node boundary; see collAlgRoot in collalg.go for why the root matters).
func TestSMPHeadline(t *testing.T) {
	bcast := func(alg string, size int) float64 {
		o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 4,
			Tuning: &mpi.Tuning{Bcast: alg}}}
		return CollectiveTime(o, 16, []int{size}, 10, func(comm *mpi.Comm, buf mpi.Buffer) {
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

// TestRailBandwidthScales is the acceptance bar of the striped rendezvous
// (DESIGN.md §10): at the largest message, two rails must clear 1.8× the
// single-rail bandwidth.
func TestRailBandwidthScales(t *testing.T) {
	byRails := map[string]float64{}
	id := "rails-bw/round-robin"
	for _, s := range buildOnce(id, twoRankFigure(id)).Series {
		byRails[s.Name] = s.Points[len(s.Points)-1].Value
	}
	if ratio := byRails["rails=2"] / byRails["rails=1"]; !(ratio >= 1.8) {
		t.Errorf("rails=2 large-message bandwidth only %.2fx of rails=1 (%v)", ratio, byRails)
	}
}
