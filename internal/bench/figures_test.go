package bench

import (
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
		f := buildOnce(r.id, r.figure)
		want := 0
		for _, c := range base.Runs {
			if c.Figure == r.id {
				want++
			}
		}
		if len(f.Series) != want {
			t.Errorf("%s: %d series, baseline has %d", r.id, len(f.Series), want)
		}
		for _, err := range Curves(f).compare(base, 0) {
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
