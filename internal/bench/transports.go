package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/shmchan"
)

// Transport matrix: every transport the unified stack can put behind a
// connection, addressable by name so benchmark commands can sweep any
// subset (`-transport=shm,ib`). The IB entries are the paper's designs;
// the shm entries place both ranks on one node so the only link is the
// shared-memory channel — with and without its single-copy rendezvous
// path.

// TransportSpec names one column of the matrix.
type TransportSpec struct {
	Name    string
	Options Options
}

// transportSpecs maps matrix names to measurement options. "ib" is the
// headline InfiniBand design (RDMA Channel zero-copy).
func transportSpecs() map[string]TransportSpec {
	mk := func(name string, o Options) TransportSpec { return TransportSpec{Name: name, Options: o} }
	return map[string]TransportSpec{
		"basic":     mk("basic", Options{Config: cluster.Config{Transport: cluster.TransportBasic}}),
		"piggyback": mk("piggyback", Options{Config: cluster.Config{Transport: cluster.TransportPiggyback}}),
		"pipeline":  mk("pipeline", Options{Config: cluster.Config{Transport: cluster.TransportPipeline}}),
		"zerocopy":  mk("zerocopy", Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}),
		"ib":        mk("ib", Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}),
		"ch3":       mk("ch3", Options{Config: cluster.Config{Transport: cluster.TransportCH3}}),
		"shm":       mk("shm", Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2}}),
		"shm-rndv": mk("shm-rndv", Options{Config: cluster.Config{
			Transport:    cluster.TransportZeroCopy,
			CoresPerNode: 2,
			Shm:          shmchan.Config{RndvThreshold: 32 << 10},
		}}),
	}
}

// TransportNames lists the matrix names in sweep order.
func TransportNames() []string {
	return []string{"basic", "piggyback", "pipeline", "zerocopy", "ib", "ch3", "shm", "shm-rndv"}
}

// ParseTransports resolves a comma-separated matrix list ("shm,ib").
func ParseTransports(list string) ([]TransportSpec, error) {
	specs := transportSpecs()
	var out []TransportSpec
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, ok := specs[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown transport %q (have %s)",
				name, strings.Join(TransportNames(), ", "))
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty transport list")
	}
	return out, nil
}

// ParseInts resolves a comma-separated list of integers in lo..hi; what
// names an entry in the errors.
func ParseInts(list, what string, lo, hi int) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < lo || n > hi {
			return nil, fmt.Errorf("bench: bad %s %q", what, tok)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty %s list", what)
	}
	return out, nil
}

// ParseSizes resolves a comma-separated size list ("4096,64K,1M").
func ParseSizes(list string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		spec, mult := tok, 1
		switch {
		case strings.HasSuffix(tok, "M"):
			mult, tok = 1<<20, strings.TrimSuffix(tok, "M")
		case strings.HasSuffix(tok, "K"):
			mult, tok = 1<<10, strings.TrimSuffix(tok, "K")
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 || n > math.MaxInt/mult {
			return nil, fmt.Errorf("bench: bad message size %q", spec)
		}
		out = append(out, n*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty size list")
	}
	return out, nil
}

// TransportMatrix runs the paper's latency and bandwidth microbenchmarks
// for every listed transport at the given sizes: one latency figure and
// one bandwidth figure, one series per transport.
func TransportMatrix(specs []TransportSpec, sizes []int) []Figure {
	lat := Figure{
		ID: "matrix-lat", Title: "Transport matrix: MPI latency",
		XLabel: "message size (bytes)", YLabel: "time (µs)",
	}
	bw := Figure{
		ID: "matrix-bw", Title: "Transport matrix: MPI bandwidth",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	for _, spec := range specs {
		l := MPILatency(spec.Options, sizes, latIters)
		l.Name = spec.Name
		lat.Series = append(lat.Series, l)
		b := MPIBandwidth(spec.Options, sizes)
		b.Name = spec.Name
		bw.Series = append(bw.Series, b)
	}
	return []Figure{lat, bw}
}
