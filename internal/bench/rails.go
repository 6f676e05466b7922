package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/rdmachan"
)

// ParseRails parses a comma list of rail counts, e.g. "1,2,4".
func ParseRails(list string) ([]int, error) {
	return ParseInts(list, fmt.Sprintf("rail count (1..%d)", rdmachan.MaxRails), 1, rdmachan.MaxRails)
}

// DefaultRailCounts is the published rail sweep.
func DefaultRailCounts() []int { return []int{1, 2, 4} }

// Multi-rail figures (DESIGN.md §10). The paper's bandwidth ceiling is one
// PCI-X-bound adapter per node (870 MB/s sustained, §6); these figures
// measure what striping the zero-copy design over N such adapters buys,
// where the ceiling moves to the node's shared memory bandwidth.

// RailBandwidth is the bandwidth-vs-rails figure: the zero-copy design's
// streaming bandwidth, one series per rail count, with eager chunks on the
// given policy and large messages striped across all rails. Its id names
// the policy, so BENCH_rails.json holds each policy's curves apart.
func RailBandwidth(railCounts []int, policy rdmachan.RailPolicy) Figure {
	f := Figure{
		ID: "rails-bw/" + policy.String(), Title: "MPI Bandwidth vs Rails (zero-copy design, striped rendezvous)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	for _, rails := range railCounts {
		o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: rails}}
		o.Chan.RailPolicy = policy
		s := MPIBandwidth(o, sizesPow4(4<<10, 4<<20))
		s.Name = fmt.Sprintf("rails=%d", rails)
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("eager rail policy: %s; zero-copy transfers stripe in ChunkSize-aligned blocks", policy),
		"rails share the node MemBandwidth ceiling but each owns its NetBandwidth (DESIGN.md §10)")
	return f
}

// AblationRailStripe is the striping-threshold ablation: at rails=2, the
// size below which a zero-copy transfer should stay on one rail. Striping
// pays per-rail registration (first touch) and a second read turnaround;
// the sweep shows where the overlap wins.
func AblationRailStripe() Figure {
	f := Figure{
		ID: "ablation-rail-stripe", Title: "Striping threshold (rails=2, zero-copy design)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	sizes := sizesPow4(16<<10, 4<<20)
	for _, th := range []struct {
		name string
		val  int
	}{
		{"stripe-all", 0},
		{"stripe>=128K", 128 << 10},
		{"stripe>=512K", 512 << 10},
		{"no-striping", -1},
	} {
		o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2}}
		o.Chan.StripeThreshold = th.val
		s := MPIBandwidth(o, sizes)
		s.Name = th.name
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		"below the threshold a transfer uses rail 0 alone; the registration cache amortizes per-rail pinning after first touch")
	return f
}

// RailPolicyFigure compares the eager rail policies at rails=2 on the
// streaming bandwidth test (mid-size messages, where the eager ring
// carries the traffic).
func RailPolicyFigure() Figure {
	f := Figure{
		ID: "rails-policy", Title: "Eager rail policy (rails=2, zero-copy design)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	sizes := sizesPow4(1<<10, 16<<10)
	for _, pol := range []rdmachan.RailPolicy{
		rdmachan.RailRoundRobin, rdmachan.RailWeighted, rdmachan.RailFixed,
	} {
		o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2}}
		o.Chan.RailPolicy = pol
		s := MPIBandwidth(o, sizes)
		s.Name = pol.String()
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes, "fixed pins rail 0: the single-rail baseline inside a 2-rail build")
	return f
}
