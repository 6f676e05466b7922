package nas

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// resilientCGConfig is the PR's acceptance configuration: CG on the
// scalable stack (lazy connections, SRQ eager mode) over two rails, with
// the resilient machinery switched on by a fault plan.
func resilientCGConfig(plan *fault.Plan) cluster.Config {
	return scenario.LazySRQ.On(cluster.Config{NP: 4, RailsPerNode: 2, Fault: plan})
}

// TestCGSurvivesRailLoss is the acceptance gate for the fault-injection
// subsystem: NAS CG class S on rails=2 lazy+SRQ must complete with correct
// checksums after every node loses rail 1 mid-run, within 1.5× the
// failure-free simulated time. The baseline runs the same resilient stack
// under an empty plan, so the comparison isolates the cost of the outage
// and recovery rather than the cost of resilient bookkeeping.
func TestCGSurvivesRailLoss(t *testing.T) {
	free := Run("cg", ClassS, resilientCGConfig(&fault.Plan{}))
	if !free.Verified {
		t.Fatal("fault-free resilient cg.S failed verification")
	}

	at := des.Time(float64(free.Time) * 0.4 * float64(des.Second))
	var plan fault.Plan
	for n := 0; n < 4; n++ {
		plan.Events = append(plan.Events,
			fault.Event{At: at, Kind: fault.HCADown, Node: n, Rail: 1})
	}
	c := cluster.MustNew(resilientCGConfig(&plan))
	defer c.Close()
	res := RunOn(c, "cg", ClassS)
	if !res.Verified {
		t.Fatal("cg.S failed verification after losing rail 1 on every node")
	}
	fs := c.FaultStats()
	if fs.LinksDowned != 4 {
		t.Fatalf("expected 4 downed links, fault stats %+v", fs)
	}
	if fs.Redials == 0 {
		t.Fatalf("rail loss caused no re-dials — the outage missed every connection: %+v", fs)
	}
	if limit := free.Time * 1.5; res.Time > limit {
		t.Fatalf("recovery too slow: %.6fs with rail loss vs %.6fs fault-free (limit %.6fs)",
			res.Time, free.Time, limit)
	}
	t.Logf("fault-free %.6fs, rail loss %.6fs (%.2f×)",
		free.Time, res.Time, res.Time/free.Time)
}

// TestCGZeroFaultPlanMatchesBaseline pins the empty-plan promise from the
// other side: switching resilient mode on without injecting any event must
// still verify and run deterministically.
func TestCGZeroFaultPlanMatchesBaseline(t *testing.T) {
	a := Run("cg", ClassS, resilientCGConfig(&fault.Plan{}))
	b := Run("cg", ClassS, resilientCGConfig(&fault.Plan{}))
	if !a.Verified || !b.Verified {
		t.Fatal("resilient cg.S failed verification")
	}
	if a.Time != b.Time {
		t.Fatalf("nondeterministic resilient runtime: %v vs %v", a.Time, b.Time)
	}
}
