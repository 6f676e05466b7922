// Machine-readable multi-rail bandwidth records: the rows of
// BENCH_rails.json, gated like BENCH_engine.json's (report.go, DESIGN.md
// §12). The bandwidth curve itself is a simulated result — deterministic,
// compared exactly — while the harness wall clock of producing it is
// machine-dependent and compared within a tolerance. The published rails-bw
// figure is rendered from these records, so the committed JSON and the
// printed table can never drift apart.
package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/rdmachan"
)

// RailsPoint is one simulated bandwidth measurement: message size against
// the streaming bandwidth the zero-copy design achieves at it.
type RailsPoint struct {
	Size int     `json:"size"`
	MBps float64 `json:"mbps"`
}

func (p RailsPoint) String() string { return fmt.Sprintf("size=%d: %.6g MB/s", p.Size, p.MBps) }

// RailsRun is the bandwidth curve for one rail count: the simulated points
// (compared exactly) and the harness wall clock of measuring them
// (compared within a tolerance).
type RailsRun struct {
	Rails       int          `json:"rails"`
	Policy      string       `json:"policy"`
	Points      []RailsPoint `json:"points"`
	WallSeconds float64      `json:"wall_sec"`
}

// key identifies a run for baseline matching.
func (r RailsRun) key() string {
	return fmt.Sprintf("rails=%d/policy=%s", r.Rails, r.Policy)
}

func (RailsRun) schema() string { return "mpich2ib/rails-bench/v1" }

func (r RailsRun) diff(b RailsRun) []string { return diffCurve(r.Points, b.Points) }

func (r RailsRun) wall() (float64, string) { return r.WallSeconds, "wall clock (s)" }

// MeasureRails runs the bandwidth-vs-rails sweep (the rails-bw figure's
// data: eager chunks on the given policy, large messages striped across
// all rails) and returns one run per rail count.
func MeasureRails(railCounts []int, policy rdmachan.RailPolicy) *Report[RailsRun] {
	rep := NewReport[RailsRun]()
	sizes := sizesPow4(4<<10, 4<<20)
	for _, rails := range railCounts {
		o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: rails}}
		o.Chan.RailPolicy = policy
		start := time.Now()
		s := MPIBandwidth(o, sizes)
		run := RailsRun{
			Rails:       rails,
			Policy:      policy.String(),
			WallSeconds: time.Since(start).Seconds(),
		}
		for _, p := range s.Points {
			run.Points = append(run.Points, RailsPoint{Size: p.Size, MBps: p.Value})
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep
}

// RailsFigure renders the rails-bw figure from measured records — the
// only path to that figure, so a committed BENCH_rails.json row is always
// exactly what the table prints.
func RailsFigure(rep *Report[RailsRun]) Figure {
	f := Figure{
		ID: "rails-bw", Title: "MPI Bandwidth vs Rails (zero-copy design, striped rendezvous)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	policy := ""
	for _, run := range rep.Runs {
		s := Series{Name: fmt.Sprintf("rails=%d", run.Rails)}
		for _, p := range run.Points {
			s.Points = append(s.Points, Point{Size: p.Size, Value: p.MBps})
		}
		f.Series = append(f.Series, s)
		policy = run.Policy
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("eager rail policy: %s; zero-copy transfers stripe in ChunkSize-aligned blocks", policy),
		"rails share the node MemBandwidth ceiling but each owns its NetBandwidth (DESIGN.md §10)")
	return f
}
