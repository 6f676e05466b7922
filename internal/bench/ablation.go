package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/shmchan"
)

// Ablations probe the design choices the paper calls out but does not
// sweep explicitly; DESIGN.md lists each with its motivating section.

// AblationTailThreshold sweeps the delayed tail-update (credit batch)
// threshold of §4.3 for one-way 16 KB streaming.
func AblationTailThreshold() Figure {
	f := Figure{
		ID: "ablation-tail", Title: "Delayed tail updates: credit batch sweep (16 KB messages)",
		XLabel: "credit batch (chunks)", YLabel: "bandwidth (MB/s)",
	}
	s := Series{Name: "pipeline 16K"}
	for _, batch := range []int{1, 2, 4, 6} {
		bw := MPIBandwidth(Options{Config: cluster.Config{
			Transport: cluster.TransportPipeline,
			Chan:      rdmachan.Config{CreditBatch: batch},
		}}, []int{16 << 10})
		s.Points = append(s.Points, Point{Size: batch, Value: bw.Points[0].Value})
	}
	f.Series = []Series{s}
	return f
}

// AblationRegCache compares zero-copy bandwidth with and without the
// pin-down cache (§5: registration/deregistration are expensive), and
// reports the cache's hit/miss/eviction totals across each sweep — the
// buffer-reuse behaviour the paper says the cache's effectiveness depends
// on.
func AblationRegCache() Figure {
	sizes := sizesPow4(16<<10, 1<<20)
	observe := func(total *regcache.Stats) func(*cluster.Cluster) {
		return func(c *cluster.Cluster) {
			s := c.RegCacheStats()
			total.Hits += s.Hits
			total.Misses += s.Misses
			total.Evictions += s.Evictions
		}
	}
	var withStats, withoutStats regcache.Stats
	with := MPIBandwidth(Options{
		Config:  cluster.Config{Transport: cluster.TransportZeroCopy},
		Observe: observe(&withStats),
	}, sizes)
	with.Name = "with cache"
	without := MPIBandwidth(Options{
		Config: cluster.Config{
			Transport: cluster.TransportZeroCopy,
			Chan:      rdmachan.Config{RegCacheBytes: -1},
		},
		Observe: observe(&withoutStats),
	}, sizes)
	without.Name = "no cache"
	note := func(name string, s regcache.Stats) string {
		return fmt.Sprintf("regcache %s: hits=%d misses=%d evictions=%d",
			name, s.Hits, s.Misses, s.Evictions)
	}
	return Figure{
		ID: "ablation-regcache", Title: "Zero-copy with and without the registration cache",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{with, without},
		Notes:  []string{note("with cache", withStats), note("no cache", withoutStats)},
	}
}

// AblationShmRndv compares the shared-memory channel's two-copy segment
// path against its single-copy rendezvous path for large intra-node
// messages: one bus crossing instead of two, with both user buffers
// pinned through the registration cache like the InfiniBand rendezvous.
func AblationShmRndv() Figure {
	sizes := sizesPow4(32<<10, 1<<20)
	var rndvStats regcache.Stats
	seg := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2}}, sizes)
	seg.Name = "shm segment"
	rndv := MPIBandwidth(Options{
		Config: cluster.Config{
			Transport:    cluster.TransportZeroCopy,
			CoresPerNode: 2,
			Shm:          shmchan.Config{RndvThreshold: 32 << 10},
		},
		Observe: func(c *cluster.Cluster) {
			s := c.RegCacheStats()
			rndvStats.Hits += s.Hits
			rndvStats.Misses += s.Misses
			rndvStats.Evictions += s.Evictions
		},
	}, sizes)
	rndv.Name = "shm rendezvous"
	return Figure{
		ID: "ablation-shm-rndv", Title: "Intra-node large messages: segment vs single-copy rendezvous",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{seg, rndv},
		Notes: []string{fmt.Sprintf("rendezvous regcache: hits=%d misses=%d evictions=%d",
			rndvStats.Hits, rndvStats.Misses, rndvStats.Evictions)},
	}
}

// AblationZCThreshold sweeps the eager→zero-copy switch point.
func AblationZCThreshold() Figure {
	f := Figure{
		ID: "ablation-zcthreshold", Title: "Zero-copy threshold sweep",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	sizes := sizesPow4(4<<10, 256<<10)
	for _, th := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		s := MPIBandwidth(Options{Config: cluster.Config{
			Transport: cluster.TransportZeroCopy,
			Chan:      rdmachan.Config{ZCThreshold: th},
		}}, sizes)
		s.Name = "thresh " + fmtSize(th)
		f.Series = append(f.Series, s)
	}
	return f
}

// AblationOutstandingReads raises the HCA's outstanding-RDMA-read limit,
// showing the mid-size read bandwidth gap of Figure 15 is an IRD effect.
func AblationOutstandingReads() Figure {
	f := Figure{
		ID: "ablation-reads", Title: "Zero-copy bandwidth vs outstanding RDMA read limit",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	sizes := sizesPow4(16<<10, 1<<20)
	for _, ird := range []int{1, 2, 4} {
		prm := model.Testbed()
		prm.MaxRDMAReads = ird
		s := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, Params: prm}}, sizes)
		s.Name = "IRD " + fmtSize(ird)
		f.Series = append(f.Series, s)
	}
	return f
}

// AblationRingSize sweeps the shared ring size for the pipeline design
// (§4.4's flow-control stalls vs buffer memory trade).
func AblationRingSize() Figure {
	f := Figure{
		ID: "ablation-ring", Title: "Pipeline bandwidth vs shared ring size (1 MB messages)",
		XLabel: "ring size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	s := Series{Name: "pipeline 1M"}
	for _, ring := range []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10} {
		bw := MPIBandwidth(Options{Config: cluster.Config{
			Transport: cluster.TransportPipeline,
			Chan:      rdmachan.Config{RingSize: ring},
		}}, []int{1 << 20})
		s.Points = append(s.Points, Point{Size: ring, Value: bw.Points[0].Value})
	}
	f.Series = []Series{s}
	return f
}

// Ablations returns every ablation figure.
func Ablations() []Figure {
	return []Figure{
		AblationTailThreshold(),
		AblationRegCache(),
		AblationZCThreshold(),
		AblationOutstandingReads(),
		AblationRingSize(),
		AblationShmRndv(),
		AblationCollAlg(),
		AblationRailStripe(),
	}
}
