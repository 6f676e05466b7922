package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/switchfab"
)

// Fat-tree determinism suite: the blocking switch model adds shared,
// mutable per-port state (uplink virtual clocks) to the wire, which is
// exactly the kind of state that could break replay and shard
// determinism. These tests extend the replay matrix onto contended
// topologies: serial vs sharded runs must stay bit-identical — the
// cluster aligns shard boundaries to switch leaves so one engine owns
// each leaf's port clocks — fault-free and under seeded chaos, and the
// contention the model adds must actually be observable (otherwise the
// "contended" fingerprints would be vacuous).

// withSwitch returns a config modifier routing the cluster's wires
// through a two-level fat tree with the given leaf radix and uplinks.
func withSwitch(leafDown, leafUp int) func(*cluster.Config) {
	return func(c *cluster.Config) {
		c.Switch = &switchfab.Config{LeafDown: leafDown, LeafUp: leafUp}
	}
}

// TestFatTreeShardedMatchesSerial: on blocking fat-tree topologies the
// sharded engine must reproduce the serial schedule exactly. Shard counts
// beyond the leaf count clamp down, so every requested count is safe.
func TestFatTreeShardedMatchesSerial(t *testing.T) {
	fabrics := []struct {
		name           string
		leafDown, upls int
	}{
		{"d2-u1", 2, 1}, // maximally blocking: every leaf pair shares one uplink
		{"d4-u2", 4, 2},
	}
	for _, fb := range fabrics {
		fb := fb
		for _, tp := range shardTopologies {
			tp := tp
			t.Run(fmt.Sprintf("%s/%s", fb.name, tp.name), func(t *testing.T) {
				sw := withSwitch(fb.leafDown, fb.upls)
				want := replayRun(t, tp, 1, nil, sw)
				if want.payload == 0 {
					t.Fatal("payload checksum degenerate — workload did not run")
				}
				for _, shards := range []int{2, 4} {
					got := replayRun(t, tp, 1, nil, sw, withShards(shards))
					if got != want {
						t.Errorf("shards=%d diverged from serial on %s:\nserial  %+v\nsharded %+v",
							shards, fb.name, want, got)
					}
				}
			})
		}
	}
}

// TestFatTreeReplayBitIdentical extends the chaos replay matrix onto the
// contended model: same seed, same schedule, same trace — twice in a row
// and across shard configurations (plans with events force serial, which
// must equal the explicit serial run bit for bit).
func TestFatTreeReplayBitIdentical(t *testing.T) {
	for _, tp := range []topology{{"flat-np5", 5, 1}, {"flat-np6", 6, 1}, {"smp-4x2", 8, 2}} {
		tp := tp
		const rails = 2
		t.Run(tp.name, func(t *testing.T) {
			sw := withSwitch(2, 1)
			nodes := (tp.np + tp.cpn - 1) / tp.cpn
			seed := int64(tp.np*700 + rails)
			want := replayRun(t, tp, rails, replayPlan(seed, nodes, rails), sw)
			if want.faults == (cluster.FaultStats{}) {
				t.Fatal("fault plan left no trace — chaos schedule did not run")
			}
			for _, shards := range []int{1, 2, 4} {
				got := replayRun(t, tp, rails, replayPlan(seed, nodes, rails), sw, withShards(shards))
				if got != want {
					t.Errorf("shards=%d diverged under chaos:\nserial  %+v\nsharded %+v",
						shards, want, got)
				}
			}
		})
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
	blockedT, blocked := run(withSwitch(4, 1))
	openT, open := run(withSwitch(4, 4))

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
