package mpi_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// shardsOf builds cfg and returns the shard count it resolves to.
func shardsOf(cfg cluster.Config) int {
	c := cluster.MustNew(cfg)
	defer c.Close()
	return c.Shards()
}

// matchesSerial runs s serial, then at shards 2 and 4, and fails unless
// every sharded run leaves the serial trace and resolved the request
// clamped to the node count and, on a fat tree, to the leaf count (one
// engine owns a whole leaf). It returns the larger resolved count: 1
// means the sharded runs were the serial one again.
func matchesSerial(t *testing.T, s scenario.Scenario) (most int) {
	t.Helper()
	want := replayRun(t, s.Config)
	if want.payload == 0 {
		t.Fatal("payload checksum degenerate — workload did not run")
	}
	for _, shards := range []int{2, 4} {
		n := min(shards, s.Nodes())
		if sw := s.Config.Switch; sw != nil {
			n = min(n, (s.Nodes()+sw.LeafDown-1)/sw.LeafDown)
		}
		cfg := s.Config
		cfg.Shards = shards
		if got := shardsOf(cfg); got != n {
			t.Errorf("shards=%d resolved to %d, want %d", shards, got, n)
		}
		if got := replayRun(t, cfg); got != want {
			t.Errorf("shards=%d diverged from serial:\nserial  %+v\nsharded %+v", shards, want, got)
		}
		most = max(most, n)
	}
	return most
}

// TestShardedMatchesSerial is the tentpole determinism gate at the MPI
// layer: the full stack — eager and lazy wiring, dedicated rings and the
// SRQ pool, one and two rails — must produce a dispatch schedule
// bit-identical to the serial engine at every fixed shard count: same
// trace fingerprint, same event count, same final clock, same payloads.
// Every sharded side must really run on more than one shard.
func TestShardedMatchesSerial(t *testing.T) {
	for _, v := range []scenario.Variant{{Name: "eager", Apply: scenario.ZeroCopy.Apply},
		{Name: "eager-rails2", Apply: scenario.Rails2.Apply}, scenario.Lazy, scenario.LazySRQ} {
		for _, tp := range scenario.Sharded {
			s := tp.With(v)
			t.Run(v.Name+"/"+tp.Name, func(t *testing.T) {
				if matchesSerial(t, s) < 2 {
					t.Errorf("%s does not partition", s.Name)
				}
			})
		}
	}
}

// replaysSerial runs cfg, whose fault plan has events, serial and then
// configured at shards 1, 2 and 4: every run must resolve to one shard,
// the fault rule (DESIGN.md §13), and leave the identical trace —
// fingerprint, event count, clock, payloads and every FaultStats counter.
func replaysSerial(t *testing.T, cfg cluster.Config) {
	t.Helper()
	want := replayRun(t, cfg)
	if want.faults == (cluster.FaultStats{}) {
		t.Fatal("fault plan left no trace — chaos schedule did not run")
	}
	for _, shards := range []int{1, 2, 4} {
		cfg.Shards = shards
		if n := shardsOf(cfg); n != 1 {
			t.Errorf("shards=%d under a fault plan resolved to %d, want 1 (forced serial)", shards, n)
		}
		if got := replayRun(t, cfg); got != want {
			t.Errorf("shards=%d diverged from serial:\nserial  %+v\nsharded %+v", shards, want, got)
		}
	}
}

// TestShardedFaultReplay checks the fault rule and the serial replay of a
// seeded chaos schedule (replaysSerial). Replay on the sharded engine is
// ROADMAP item 24.
func TestShardedFaultReplay(t *testing.T) {
	for _, tp := range scenario.Layouts("flat-np5", "smp-4x2") {
		cfg := scenario.Chaos(2, 1000).On(tp.Config)
		t.Run(tp.Name, func(t *testing.T) { replaysSerial(t, cfg) })
	}
}

// TestShardForcingRules pins the shard-count resolution: fault plans with
// events force serial execution, an armed-but-empty plan keeps its shards
// (and still matches the serial schedule), and the count clamps to the
// node count.
func TestShardForcingRules(t *testing.T) {
	tp := scenario.Layout("flat-np5")
	resolve := func(plan *fault.Plan, shards int) int {
		cfg := tp.Config
		cfg.Fault, cfg.Shards = plan, shards
		return shardsOf(cfg)
	}
	if got := resolve(scenario.Plan(7, tp.Config.NP, 1), 4); got != 1 {
		t.Errorf("fault plan with events: shards = %d, want 1 (forced serial)", got)
	}
	if got := resolve(&fault.Plan{}, 4); got != 4 {
		t.Errorf("armed empty plan: shards = %d, want 4", got)
	}
	if got := resolve(nil, 64); got != tp.Config.NP {
		t.Errorf("shards clamp: got %d, want %d (node count)", got, tp.Config.NP)
	}

	// The armed-but-empty resilient stack is not schedule-identical to the
	// fault-free stack (resilience changes the protocol, serial included),
	// so compare the sharded resilient run against the serial resilient run.
	armed := tp
	armed.Config.Fault = &fault.Plan{}
	matchesSerial(t, armed)
}
