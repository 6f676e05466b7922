package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// withShards returns a config modifier selecting sharded execution.
func withShards(n int) func(*cluster.Config) {
	return func(c *cluster.Config) { c.Shards = n }
}

// shardTopologies is the subset of the collective matrix with enough nodes
// for the shard counts under test to actually partition the cluster.
var shardTopologies = []topology{
	{"flat-np5", 5, 1},
	{"flat-np6", 6, 1},
	{"smp-4x2", 8, 2},
	{"smp-uneven-7ranks", 7, 4}, // nodes of 4,3
}

// TestShardedMatchesSerial is the tentpole determinism gate at the MPI
// layer: the full stack — eager and lazy wiring, dedicated rings and the
// SRQ pool, one and two rails — must produce a dispatch schedule
// bit-identical to the serial engine at every fixed shard count: same
// trace fingerprint, same event count, same final clock, same payloads.
func TestShardedMatchesSerial(t *testing.T) {
	variants := []struct {
		name  string
		rails int
		mod   func(*cluster.Config)
	}{
		{"eager", 1, func(c *cluster.Config) {}},
		{"eager-rails2", 2, func(c *cluster.Config) {}},
		{"lazy", 1, func(c *cluster.Config) { c.ConnectMode = cluster.ConnectLazy }},
		{"lazy-srq", 1, func(c *cluster.Config) {
			c.ConnectMode = cluster.ConnectLazy
			c.Chan.UseSRQ = true
		}},
	}
	for _, v := range variants {
		v := v
		for _, tp := range shardTopologies {
			tp := tp
			t.Run(fmt.Sprintf("%s/%s", v.name, tp.name), func(t *testing.T) {
				want := replayRun(t, tp, v.rails, nil, v.mod)
				if want.payload == 0 {
					t.Fatal("payload checksum degenerate — workload did not run")
				}
				for _, shards := range []int{2, 4} {
					got := replayRun(t, tp, v.rails, nil, v.mod, withShards(shards))
					if got != want {
						t.Errorf("shards=%d diverged from serial:\nserial  %+v\nsharded %+v",
							shards, want, got)
					}
				}
			})
		}
	}
}

// TestShardedFaultReplay extends the chaos replay matrix across shard
// counts: a seeded fault plan must leave the identical trace — fingerprint,
// event count, clock, payloads, and every FaultStats counter — whether the
// cluster was configured serial or sharded. Plans with events force serial
// execution internally, so this also pins that forcing rule to the exact
// serial schedule.
func TestShardedFaultReplay(t *testing.T) {
	for _, tp := range []topology{{"flat-np5", 5, 1}, {"smp-4x2", 8, 2}} {
		tp := tp
		const rails = 2
		nodes := (tp.np + tp.cpn - 1) / tp.cpn
		seed := int64(tp.np*1000 + rails)
		t.Run(tp.name, func(t *testing.T) {
			want := replayRun(t, tp, rails, replayPlan(seed, nodes, rails))
			if want.faults == (cluster.FaultStats{}) {
				t.Fatal("fault plan left no trace — chaos schedule did not run")
			}
			for _, shards := range []int{1, 2, 4} {
				got := replayRun(t, tp, rails, replayPlan(seed, nodes, rails), withShards(shards))
				if got != want {
					t.Errorf("shards=%d diverged from serial:\nserial  %+v\nsharded %+v",
						shards, want, got)
				}
			}
		})
	}
}

// TestShardForcingRules pins the shard-count resolution: fault plans with
// events force serial execution, an armed-but-empty plan keeps its shards
// (and still matches the serial schedule), and the count clamps to the
// node count.
func TestShardForcingRules(t *testing.T) {
	tp := topology{"flat-np5", 5, 1}
	mk := func(plan *fault.Plan, shards int) *cluster.Cluster {
		return cluster.MustNew(cluster.Config{
			NP: tp.np, Transport: cluster.TransportZeroCopy,
			Fault: plan, Shards: shards,
		})
	}
	c := mk(replayPlan(7, tp.np, 1), 4)
	if got := c.Shards(); got != 1 {
		t.Errorf("fault plan with events: shards = %d, want 1 (forced serial)", got)
	}
	c.Close()

	c = mk(&fault.Plan{}, 4)
	if got := c.Shards(); got != 4 {
		t.Errorf("armed empty plan: shards = %d, want 4", got)
	}
	c.Close()

	c = mk(nil, 64)
	if got := c.Shards(); got != tp.np {
		t.Errorf("shards clamp: got %d, want %d (node count)", got, tp.np)
	}
	c.Close()

	// The armed-but-empty resilient stack is not schedule-identical to the
	// fault-free stack (resilience changes the protocol, serial included),
	// so compare the sharded resilient run against the serial resilient run.
	armed := func(c *cluster.Config) { c.Fault = &fault.Plan{} }
	want := replayRun(t, tp, 1, nil, armed)
	got := replayRun(t, tp, 1, nil, armed, withShards(2))
	if got != want {
		t.Errorf("armed empty plan sharded diverged:\nserial  %+v\nsharded %+v", want, got)
	}
}
