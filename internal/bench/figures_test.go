package bench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// TestHeadlineNumbers is the repository's single most important test: the
// paper's abstract in executable form.
func TestHeadlineNumbers(t *testing.T) {
	raw := VerbsLatency(nil)
	if raw < 5.5 || raw > 6.3 {
		t.Errorf("raw latency = %.2f µs, paper: 5.9", raw)
	}
	f := Headline()
	lat := f.Series[0].Points[0].Value
	bw := f.Series[1].Points[0].Value
	if lat < 7.2 || lat > 8.2 {
		t.Errorf("MPI latency = %.2f µs, paper: 7.6", lat)
	}
	if bw < 820 || bw > 875 {
		t.Errorf("MPI bandwidth = %.1f MB/s, paper: 857", bw)
	}
}

// TestSMPHeadline is the SMP scenario's acceptance gate in executable
// form: the shared-memory channel must beat InfiniBand for small
// messages, and on a 4-node × 4-core layout the hierarchical broadcast
// must beat the flat binomial (rooted off the node boundary; see
// AblationCollAlg's layout for why the root matters).
func TestSMPHeadline(t *testing.T) {
	f := Fig3Latency()
	shm, ib := f.Series[0].Points[0].Value, f.Series[1].Points[0].Value
	if shm <= 0 || ib <= 0 || shm >= ib {
		t.Errorf("small-message latency: shm %.2f µs vs IB %.2f µs; shm must win", shm, ib)
	}

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
	for _, s := range RailBandwidth().Series {
		byRails[s.Name] = s.Points[len(s.Points)-1].Value
	}
	if ratio := byRails["rails=2"] / byRails["rails=1"]; !(ratio >= 1.8) {
		t.Errorf("rails=2 large-message bandwidth only %.2fx of rails=1 (%v)", ratio, byRails)
	}
}
