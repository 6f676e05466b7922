//go:build !desplain

// Not in the plain-Sleep reference build: the event count and fingerprint
// pinned here are the eliding build's (DESIGN.md §16).

package nas

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// cgScalable runs NAS CG class S on the scalable stack of the
// BENCH_engine.json rows (zero-copy, lazy connections, SRQ) with the
// allgather algorithm forced ("" = the default table). It returns the
// cluster, still open, for its counters, and the run rendered the way a
// row records it: events and simulated time across the kernel alone.
func cgScalable(t *testing.T, np int, allgather string) (*cluster.Cluster, string) {
	t.Helper()
	c := cluster.MustNew(cluster.Config{
		NP:          np,
		Transport:   cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy,
		Chan:        rdmachan.Config{UseSRQ: true},
		Tuning:      &mpi.Tuning{Allgather: allgather},
	})
	c.Eng.EnableTrace()
	ev0, sim0 := c.Eng.EventsExecuted(), c.Now()
	if !RunOn(c, "cg", ClassS).Verified {
		t.Fatalf("cg.S np=%d allgather=%q failed verification", np, allgather)
	}
	return c, fmt.Sprintf("events=%d fp=%016x sim=%.9f",
		c.Eng.EventsExecuted()-ev0, c.Eng.TraceFingerprint(), (c.Now() - sim0).Seconds())
}

// TestRingAllgatherReproducesOldRow: allgather=ring is the way back to the
// schedule from before Comm.Split's allgather went log-step — the cg.S
// np=64 row BENCH_engine.json held until then, bit for bit.
func TestRingAllgatherReproducesOldRow(t *testing.T) {
	c, got := cgScalable(t, 64, "ring")
	defer c.Close()
	if want := "events=277626 fp=2b14447b0e3ee08f sim=0.003823515"; got != want {
		t.Errorf("cg.S np=64 under allgather=ring:\n got %s\nwant %s", got, want)
	}
}

// TestSplitFootprintUnchanged: the log-step Split dials nobody the ring
// run does not. Recursive doubling's partners are rank XOR 2^k and the
// ring's rank±1; the world dissemination barriers CG already runs reach
// every rank±2^k, a superset of both, so under lazy connection management
// the footprint is the barrier's either way.
func TestSplitFootprintUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("two cg.S np=256 runs")
	}
	for _, alg := range []string{"", "ring"} {
		c, _ := cgScalable(t, 256, alg)
		if got := c.MemStats().Connections; got != 4080 {
			t.Errorf("cg.S np=256 allgather=%q ends with %d connections, want 4080", alg, got)
		}
		c.Close()
	}
}
