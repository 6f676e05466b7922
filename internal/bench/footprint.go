// Connection-scalability figures (DESIGN.md §9): memory footprint and
// connection count versus job size under eager and lazy connection
// management, plus the connection-setup latency ablation. These are the
// measurements behind the refactor's claim — per-process communication
// memory bounded by the SRQ pool and connections proportional to the
// traffic pattern, not the job size.
package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// Traffic patterns for the footprint sweep. Each rank exchanges small
// messages per the pattern, so lazy mode establishes exactly the
// pattern's connections.
type pattern struct {
	name string
	run  func(comm *mpi.Comm, send, recv mpi.Buffer)
}

func patterns() []pattern {
	return []pattern{
		// Open chain: pairwise exchanges ordered low-neighbor first, so
		// completion flows outward from rank 0.
		{"neighbor", func(comm *mpi.Comm, send, recv mpi.Buffer) {
			rank, np := comm.Rank(), comm.Size()
			if rank > 0 {
				comm.Sendrecv(send, rank-1, 9, recv, rank-1, 9)
			}
			if rank < np-1 {
				comm.Sendrecv(send, rank+1, 9, recv, rank+1, 9)
			}
		}},
		// Circular shift: send to the successor, receive from the
		// predecessor in one call.
		{"ring", func(comm *mpi.Comm, send, recv mpi.Buffer) {
			rank, np := comm.Rank(), comm.Size()
			comm.Sendrecv(send, (rank+1)%np, 9, recv, (rank+np-1)%np, 9)
		}},
		// XOR pairing: symmetric rounds, so both sides of every exchange
		// agree on the order (np is a power of two throughout the sweep).
		{"alltoall", func(comm *mpi.Comm, send, recv mpi.Buffer) {
			rank, np := comm.Rank(), comm.Size()
			for k := 1; k < np; k++ {
				peer := rank ^ k
				comm.Sendrecv(send, peer, 9, recv, peer, 9)
			}
		}},
	}
}

// Sweep bounds: the eager mesh allocates O(np²) rings of real memory and
// the all-to-all pattern establishes the mesh even lazily, so both stop
// at maxMeshNP; the truncation is recorded in the figure notes rather
// than applied silently.
const maxMeshNP = 64

// ConnectVariant is one series of the footprint figures.
type ConnectVariant struct {
	Name string
	Mode cluster.ConnectMode
}

// ParseConnectModes resolves a comma-separated mode list ("eager,lazy").
func ParseConnectModes(list string) ([]ConnectVariant, error) {
	var out []ConnectVariant
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		switch tok {
		case "":
		case "eager":
			out = append(out, ConnectVariant{"eager", cluster.ConnectEager})
		case "lazy":
			out = append(out, ConnectVariant{"lazy", cluster.ConnectLazy})
		default:
			return nil, fmt.Errorf("bench: unknown connect mode %q (have eager, lazy)", tok)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty connect-mode list")
	}
	return out, nil
}

// ParseNPs resolves a comma-separated rank-count list ("8,16,32").
func ParseNPs(list string) ([]int, error) {
	return ParseInts(list, "rank count", 2, math.MaxInt)
}

// DefaultFootprintNPs is the published sweep: 8…512.
func DefaultFootprintNPs() []int { return []int{8, 16, 32, 64, 128, 256, 512} }

// footprintCluster builds one sweep point. Lazy mode runs the SRQ-backed
// eager path (the memory model under study); eager mode runs the paper's
// default chunk rings.
func footprintCluster(mode cluster.ConnectMode, np int) *cluster.Cluster {
	cfg := cluster.Config{NP: np, Transport: cluster.TransportZeroCopy, ConnectMode: mode}
	if mode == cluster.ConnectLazy {
		cfg.Chan = rdmachan.Config{UseSRQ: true}
	}
	return cluster.MustNew(cfg)
}

// runPattern drives the pattern's exchanges over small messages.
func runPattern(c *cluster.Cluster, pat pattern) {
	c.Launch(func(comm *mpi.Comm) {
		send, _ := comm.Alloc(1024)
		recv, _ := comm.Alloc(1024)
		pat.run(comm, send, recv)
	})
}

// FootprintFigures produces the two footprint-vs-np figures — established
// connections (pairs) and per-process eager-buffer memory (KB, maximum
// over ranks) — one series per connect mode × traffic pattern. Eager
// wiring ignores the pattern (the mesh exists regardless), so it
// contributes one series.
func FootprintFigures(variants []ConnectVariant, nps []int) []Figure {
	conns := Figure{
		ID: "footprint-conns", Title: "Established connections vs job size",
		XLabel: "ranks (np)", YLabel: "connections (pairs)",
	}
	mem := Figure{
		ID: "footprint-mem", Title: "Per-process eager-buffer memory vs job size",
		XLabel: "ranks (np)", YLabel: "max KB per process",
	}
	note := func(f *Figure, s string) { f.Notes = append(f.Notes, s) }
	for _, v := range variants {
		pats := patterns()
		if v.Mode == cluster.ConnectEager {
			// The mesh is wired before any traffic; one series suffices.
			pats = []pattern{{name: "any", run: patterns()[0].run}}
		}
		for _, pat := range pats {
			sc := Series{Name: v.Name + "/" + pat.name}
			sm := Series{Name: v.Name + "/" + pat.name}
			for _, np := range nps {
				if np > maxMeshNP && (v.Mode == cluster.ConnectEager || pat.name == "alltoall") {
					note(&conns, fmt.Sprintf("%s stops at np=%d: the full mesh is the O(np²) cost under study", sc.Name, maxMeshNP))
					break
				}
				c := footprintCluster(v.Mode, np)
				runPattern(c, pat)
				nConns, maxKB := 0, 0.0
				for r := 0; r < np; r++ {
					rs := c.RankMemStats(r)
					nConns += rs.Connections
					if kb := float64(rs.EagerBytes) / 1024; kb > maxKB {
						maxKB = kb
					}
				}
				c.Close()
				sc.Points = append(sc.Points, Point{Size: np, Value: float64(nConns) / 2})
				sm.Points = append(sm.Points, Point{Size: np, Value: maxKB})
			}
			conns.Series = append(conns.Series, sc)
			mem.Series = append(mem.Series, sm)
		}
	}
	note(&mem, "eager dedicates ring+staging per connection; lazy uses the per-process SRQ pool")
	return []Figure{conns, mem}
}

// AblationConnectSetup measures what lazy establishment costs the first
// message: a 2-rank ping-pong where point 1 is the very first ping-pong
// (lazy pays QP creation, registration and the address-exchange handshake
// here; eager paid them before the clock started) and point 2 the
// steady-state average of the next iterations.
func AblationConnectSetup(variants []ConnectVariant) Figure {
	f := Figure{
		ID: "ablation-connect-setup", Title: "Connection-setup latency: first message vs steady state",
		XLabel: "1 = first ping-pong, 2 = steady state", YLabel: "round trip (µs)",
	}
	const iters = 10
	for _, v := range variants {
		c := footprintCluster(v.Mode, 2)
		var first, steady float64
		c.Launch(func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(4)
			if comm.Rank() == 0 {
				start := comm.Wtime()
				comm.Send(buf, 1, 0)
				comm.Recv(buf, 1, 0)
				first = (comm.Wtime() - start) * 1e6
				start = comm.Wtime()
				for i := 0; i < iters; i++ {
					comm.Send(buf, 1, 0)
					comm.Recv(buf, 1, 0)
				}
				steady = (comm.Wtime() - start) / iters * 1e6
			} else {
				for i := 0; i < iters+1; i++ {
					comm.Recv(buf, 0, 0)
					comm.Send(buf, 0, 0)
				}
			}
		})
		c.Close()
		f.Series = append(f.Series, Series{Name: v.Name, Points: []Point{
			{Size: 1, Value: first}, {Size: 2, Value: steady},
		}})
	}
	f.Notes = append(f.Notes,
		"lazy front-loads QP creation, slot registration and the address exchange into message 1")
	return f
}
