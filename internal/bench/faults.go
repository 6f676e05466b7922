package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// Resilience figure (DESIGN.md §11). The paper's testbed never loses an
// adapter mid-run; this figure measures what the failover machinery costs
// when one does — completed traffic and connection-recovery latency as the
// injected failure rate rises.

// faultCounts is the failure-rate sweep, injected faults per run.
var faultCounts = []int{0, 1, 2, 4, 8}

const (
	faultSeed   = 1 // schedule seed base: same seed, same schedule, same run
	faultNP     = 4
	faultRails  = 2
	faultRounds = 24
	faultSize   = 64 << 10
)

// faultConfig is the resilient stack the figure stresses: lazy SRQ wiring
// over two rails, so a failed connection re-dials onto the survivor.
func faultConfig(plan *fault.Plan) cluster.Config {
	return cluster.Config{
		NP:           faultNP,
		Transport:    cluster.TransportZeroCopy,
		ConnectMode:  cluster.ConnectLazy,
		RailsPerNode: faultRails,
		Chan:         rdmachan.Config{UseSRQ: true},
		Fault:        plan,
	}
}

// faultRun drives the fixed workload — faultRounds ring shifts of
// faultSize bytes per rank — on a cluster built from the plan and returns
// the completed-traffic rate in MB/s plus the cluster's fault counters.
func faultRun(plan *fault.Plan) (float64, cluster.FaultStats) {
	c := cluster.MustNew(faultConfig(plan))
	defer c.Close()
	return faultWorkload(c), c.FaultStats()
}

// faultRecovery sweeps the injected failure rate: for each count, a seeded
// schedule of link outages and drop bursts (fault.Generate) plays against
// the fixed workload. The zero-count point is the resilient stack under an
// empty plan, so the curve isolates recovery cost from bookkeeping cost.
// The schedule horizon is the failure-free run's own duration, so faults
// land inside the measured window at every rate.
func faultRecovery() Figure {
	f := Figure{
		ID: "fault-recovery", Title: "Completed Traffic and Recovery Latency vs Failure Rate (lazy SRQ, rails=2)",
		XLabel: "injected faults per run", YLabel: "bandwidth (MB/s) / latency (µs)",
	}
	// Failure-free probe run to size the schedule horizon.
	probe := cluster.MustNew(faultConfig(&fault.Plan{}))
	faultWorkload(probe)
	horizon := probe.Now()
	probe.Close()

	bw := Series{Name: "completed MB/s"}
	rec := Series{Name: "mean recovery µs"}
	var redials, downs uint64
	for _, n := range faultCounts {
		plan := &fault.Plan{}
		if n > 0 {
			plan = fault.Generate(fault.GenConfig{
				Seed: faultSeed + int64(n), Nodes: faultNP, Rails: faultRails,
				Horizon: horizon, Events: n,
				Kinds:     []fault.Kind{fault.LinkDown, fault.DropBurst},
				SpareRail: -1,
			})
		}
		rate, fs := faultRun(plan)
		bw.Points = append(bw.Points, Point{Size: n, Value: rate})
		rec.Points = append(rec.Points, Point{Size: n, Value: float64(fs.MeanRecovery()) / float64(des.Microsecond)})
		redials += fs.Redials
		downs += fs.LinksDowned
	}
	f.Series = []Series{bw, rec}
	f.Notes = append(f.Notes,
		fmt.Sprintf("workload: %d ranks × %d ring shifts of %s over lazy SRQ connections, %d rails/node",
			faultNP, faultRounds, fmtSize(faultSize), faultRails),
		fmt.Sprintf("schedule: fault.Generate seed base %d, horizon %v (the failure-free run); %d links downed, %d re-dials across the sweep",
			faultSeed, horizon, downs, redials),
		"every payload is checksummed in the chaos suite (internal/cluster, internal/ch3); this figure measures only cost")
	return f
}

// faultWorkload runs the figure workload on an existing cluster and
// returns the completed-traffic rate; split out so the horizon probe
// reuses the exact traffic being measured.
func faultWorkload(c *cluster.Cluster) float64 {
	var elapsed float64
	c.Launch(func(comm *mpi.Comm) {
		np, me := comm.Size(), comm.Rank()
		sbuf, _ := comm.Alloc(faultSize)
		rbuf, _ := comm.Alloc(faultSize)
		start := comm.Wtime()
		for i := 0; i < faultRounds; i++ {
			comm.Sendrecv2(sbuf, (me+1)%np, rbuf, (me+np-1)%np, 1)
		}
		if me == 0 {
			elapsed = comm.Wtime() - start
		}
	})
	moved := float64(faultNP * faultRounds * faultSize)
	return moved / (elapsed * 1e6)
}
