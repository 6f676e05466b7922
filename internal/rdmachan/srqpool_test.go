package rdmachan_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/nas"
	"repro/internal/scenario"
)

// TestSRQPoolBacksWhatPacketsReach: after cg.S np=64 on lazy connections
// and the SRQ eager pool, every pool still registers and reports its full
// 48 slots of 8 KB, but the host backs only what packets in flight reach
// plus the buffers released slots hand on. The backed totals are exact:
// they move only if the packets the run sends, the slots they land in or
// the order slots are released in change.
func TestSRQPoolBacksWhatPacketsReach(t *testing.T) {
	const np = 64
	c := cluster.MustNew(scenario.LazySRQ.On(cluster.Config{NP: np}))
	defer c.Close()
	if !nas.RunOn(c, "cg", nas.ClassS).Verified {
		t.Fatal("cg.S np=64 failed verification")
	}
	var recv, send, most int
	for r := 0; r < np; r++ {
		sp := c.SRQPool(r)
		if got := sp.Footprint().EagerBytes; got != 393216 {
			t.Errorf("rank %d reports %d eager bytes, want 393216", r, got)
		}
		rv, sd := sp.HostBacked()
		recv, send, most = recv+rv, send+sd, max(most, rv+sd)
	}
	if recv != 116288 || send != 244672 || most != 13248 {
		t.Errorf("pools back %d recv + %d send bytes, at most %d in one; want 116288 + 244672, at most 13248",
			recv, send, most)
	}
}
