package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/scenario"
	"repro/internal/switchfab"
)

// Fat-tree determinism suite: the blocking switch model adds shared,
// mutable per-port state (uplink virtual clocks) to the wire, which is
// exactly the kind of state that could break replay and shard
// determinism. These tests carry the replay checks onto contended
// topologies: serial vs sharded runs must stay bit-identical — the
// cluster aligns shard boundaries to switch leaves so one engine owns
// each leaf's port clocks — fault-free and under seeded chaos, and the
// contention the model adds must actually be observable (otherwise the
// "contended" fingerprints would be vacuous).

// TestFatTreeShardedMatchesSerial: on blocking fat-tree topologies the
// sharded engine must reproduce the serial schedule exactly. Shards clamp
// to the leaf count, so every cell spans two leaves (at d4 only the flat
// layouts do) and every sharded side must run on more than one shard.
func TestFatTreeShardedMatchesSerial(t *testing.T) {
	for _, fb := range []struct {
		down, up int
		layouts  []string
	}{
		{2, 1, []string{"flat-np5", "flat-np6", "smp-4x2", "smp-uneven-5ranks"}}, // maximally blocking
		{4, 2, []string{"flat-np5", "flat-np6"}},
	} {
		for _, tp := range scenario.Layouts(fb.layouts...) {
			s := tp.With(scenario.FatTree(fb.down, fb.up))
			t.Run(fmt.Sprintf("d%d-u%d/%s", fb.down, fb.up, tp.Name), func(t *testing.T) {
				if matchesSerial(t, s) < 2 {
					t.Errorf("%s fits one leaf", s.Name)
				}
			})
		}
	}
}

// TestFatTreeReplayBitIdentical carries the seeded chaos replay onto the
// contended model: same seed, same schedule, same trace, serial and
// configured sharded (replaysSerial).
func TestFatTreeReplayBitIdentical(t *testing.T) {
	for _, tp := range scenario.Layouts("flat-np5", "flat-np6", "smp-4x2") {
		cfg := scenario.Chaos(2, 700).On(scenario.FatTree(2, 1).On(tp.Config))
		t.Run(tp.Name, func(t *testing.T) { replaysSerial(t, cfg) })
	}
}

// TestFatTreeContentionObserved proves the switch model is not vacuously
// wired in: hotspot alltoall traffic on an oversubscribed fat tree must
// queue on the uplink ports (nonzero waited time in the fabric counters)
// and finish later than the same workload on the flat wire; and the
// same fabric with enough uplinks to be non-blocking must queue less.
func TestFatTreeContentionObserved(t *testing.T) {
	run := func(mods ...func(*cluster.Config)) (des.Time, *cluster.Cluster) {
		cfg := cluster.Config{NP: 8, Transport: cluster.TransportZeroCopy}
		for _, mod := range mods {
			mod(&cfg)
		}
		c := cluster.MustNew(cfg)
		defer c.Close()
		const bn = 32 << 10
		c.Launch(func(comm *mpi.Comm) {
			send, sb := comm.Alloc(bn * comm.Size())
			recv, _ := comm.Alloc(bn * comm.Size())
			for i := range sb {
				sb[i] = byte(comm.Rank() + i*31)
			}
			for iter := 0; iter < 2; iter++ {
				comm.Alltoall(send, recv)
			}
		})
		return c.Now(), c
	}

	flatT, _ := run()
	blockedT, blocked := run(scenario.FatTree(4, 1).Apply)
	openT, open := run(scenario.FatTree(4, 4).Apply)

	bs := blocked.SwitchStats()
	if bs.UpWaited == 0 {
		t.Fatalf("oversubscribed fat tree recorded no uplink queueing: %+v", bs)
	}
	if blockedT <= flatT {
		t.Errorf("hotspot alltoall on the blocking fabric (%v) not slower than flat wire (%v)",
			blockedT, flatT)
	}
	os := open.SwitchStats()
	if os.UpWaited >= bs.UpWaited {
		t.Errorf("4 uplinks waited %v, 1 uplink waited %v — more uplinks must queue less",
			os.UpWaited, bs.UpWaited)
	}
	if openT >= blockedT {
		t.Errorf("non-blocking fabric (%v) not faster than oversubscribed one (%v)", openT, blockedT)
	}
	if labels := [2]string{blocked.NetLabel(), open.NetLabel()}; labels !=
		[2]string{"fattree-d4-u1", "fattree-d4-u4"} {
		t.Errorf("unexpected topology labels %v", labels)
	}
}

// TestFlatLabelStable pins the nil-switch config to the flat label the
// tuning table keys on — the guard that default runs keep the exact
// pre-switchfab dispatch (and therefore the committed fingerprints).
func TestFlatLabelStable(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	if got := c.NetLabel(); got != "flat" {
		t.Fatalf("flat cluster label = %q", got)
	}
	if st := c.SwitchStats(); st != (switchfab.Stats{}) {
		t.Fatalf("flat cluster has switch stats: %+v", st)
	}
}
