// Machine-readable collective-algorithm records: the rows of
// BENCH_coll.json, gated like BENCH_engine.json's and BENCH_rails.json's
// (report.go, DESIGN.md §12/§14). Each run is one (collective, algorithm,
// network) curve of per-call times; the simulated times are deterministic
// and compared exactly, so the committed baseline pins both the algorithm
// schedules and the switch model's contention arithmetic — including the
// flat/fat-tree crossovers the default tuning table encodes.
package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/switchfab"
)

// CollPoint is one simulated measurement: message size against the
// per-call completion time of the collective at it.
type CollPoint struct {
	Size int     `json:"size"`
	Us   float64 `json:"us"`
}

func (p CollPoint) String() string { return fmt.Sprintf("size=%d: %.6g µs", p.Size, p.Us) }

// CollRun is one algorithm's curve on one network model.
type CollRun struct {
	Coll        string      `json:"coll"`
	Alg         string      `json:"alg"`
	Net         string      `json:"net"`
	NP          int         `json:"np"`
	CPN         int         `json:"cpn"`
	Points      []CollPoint `json:"points"`
	WallSeconds float64     `json:"wall_sec"`
}

// key identifies a run for baseline matching.
func (r CollRun) key() string {
	return fmt.Sprintf("coll=%s/alg=%s/net=%s/np=%d/cpn=%d", r.Coll, r.Alg, r.Net, r.NP, r.CPN)
}

func (CollRun) schema() string { return "mpich2ib/coll-bench/v1" }

func (r CollRun) diff(b CollRun) []string { return diffCurve(r.Points, b.Points) }

func (r CollRun) wall() (float64, string) { return r.WallSeconds, "wall clock (s)" }

// ParseNet maps a -net flag value to a switch configuration: "flat" (or
// empty) is the direct wire, "fattree-dD-uU" a two-level fat tree with
// D nodes per leaf and U uplinks per leaf.
func ParseNet(s string) (*switchfab.Config, error) {
	if s == "" || s == "flat" {
		return nil, nil
	}
	var d, u int
	if rest, ok := strings.CutPrefix(s, "fattree-d"); ok {
		if ds, us, ok := strings.Cut(rest, "-u"); ok {
			var err1, err2 error
			d, err1 = strconv.Atoi(ds)
			u, err2 = strconv.Atoi(us)
			if err1 == nil && err2 == nil && d > 0 && u > 0 {
				return &switchfab.Config{LeafDown: d, LeafUp: u}, nil
			}
		}
	}
	return nil, fmt.Errorf("bench: bad net %q (want flat or fattree-dD-uU, e.g. fattree-d4-u1)", s)
}

// MeasureColl measures every applicable algorithm of each listed
// collective on the given layout, over the flat wire and over an
// oversubscribed fat tree (4 nodes per leaf, 1 uplink — the canonical
// contended model), and returns one run per (collective, algorithm, net).
func MeasureColl(colls []string, np, cpn int, sizes []int, iters int) (*Report[CollRun], error) {
	rep := NewReport[CollRun]()
	nets := []*switchfab.Config{nil, {LeafDown: 4, LeafUp: 1}}
	for _, sw := range nets {
		net := "flat"
		if sw != nil {
			net = sw.Label()
		}
		for _, coll := range colls {
			algs, err := applicableAlgs(coll, np, cpn, sw)
			if err != nil {
				return nil, err
			}
			for _, alg := range algs {
				tun := mpi.DefaultTuning()
				tun.Force(coll, alg)
				o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: cpn, Tuning: &tun, Switch: sw}}
				root := collAlgRoot
				if root >= np {
					root = np - 1
				}
				start := time.Now()
				s := CollectiveTime(o, np, sizes, iters, collRunner(coll, np, root))
				run := CollRun{Coll: coll, Alg: alg, Net: net, NP: np, CPN: cpn,
					WallSeconds: time.Since(start).Seconds()}
				for _, p := range s.Points {
					run.Points = append(run.Points, CollPoint{Size: p.Size, Us: p.Value})
				}
				rep.Runs = append(rep.Runs, run)
			}
		}
	}
	return rep, nil
}

// applicableAlgs filters a collective's registry down to the algorithms
// the given layout can actually run (one probe launch, as CollAlgSweep).
func applicableAlgs(coll string, np, cpn int, sw *switchfab.Config) ([]string, error) {
	known := false
	for _, c := range mpi.Collectives() {
		known = known || c == coll
	}
	if !known {
		return nil, fmt.Errorf("bench: unknown collective %q (have %s)",
			coll, strings.Join(mpi.Collectives(), ", "))
	}
	algs := mpi.AlgorithmNames(coll)
	applicable := map[string]bool{}
	probe := cluster.MustNew(cluster.Config{NP: np, CoresPerNode: cpn,
		Transport: cluster.TransportZeroCopy, Switch: sw})
	probe.Launch(func(comm *mpi.Comm) {
		if comm.Rank() != 0 {
			return
		}
		for _, a := range algs {
			applicable[a] = comm.AlgorithmApplicable(coll, a)
		}
	})
	probe.Close()
	kept := []string{}
	for _, a := range algs {
		if applicable[a] {
			kept = append(kept, a)
		}
	}
	return kept, nil
}

// CollFigures renders the measured records as one figure per network
// model, one series per collective/algorithm — the printed tables behind
// the tuning crossovers, always exactly the committed JSON.
func CollFigures(rep *Report[CollRun]) []Figure {
	order := []string{}
	byNet := map[string]*Figure{}
	for _, run := range rep.Runs {
		f, ok := byNet[run.Net]
		if !ok {
			order = append(order, run.Net)
			f = &Figure{
				ID: "coll-json-" + run.Net,
				Title: fmt.Sprintf("Collective algorithms on %s (%d ranks, %d per node)",
					run.Net, run.NP, run.CPN),
				XLabel: "message size (bytes)", YLabel: "time per call (µs)",
			}
			byNet[run.Net] = f
		}
		s := Series{Name: run.Coll + "/" + run.Alg}
		for _, p := range run.Points {
			s.Points = append(s.Points, Point{Size: p.Size, Value: p.Us})
		}
		f.Series = append(f.Series, s)
	}
	figs := make([]Figure, 0, len(order))
	for _, net := range order {
		figs = append(figs, *byNet[net])
	}
	return figs
}
