package mpi_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// expectSplit computes, on the host, the groups Comm.Split must build:
// world ranks per color, ordered by (key, parent rank).
func expectSplit(np int, colors, keys []int) map[int][]int {
	groups := map[int][]int{}
	for _, color := range colors {
		if color < 0 || groups[color] != nil {
			continue
		}
		var members []int
		for r := 0; r < np; r++ {
			if colors[r] == color {
				members = append(members, r)
			}
		}
		sort.Slice(members, func(i, j int) bool {
			if keys[members[i]] != keys[members[j]] {
				return keys[members[i]] < keys[members[j]]
			}
			return members[i] < members[j]
		})
		groups[color] = members
	}
	return groups
}

// TestSubCommCollectivesAllTopologies is the sub-communicator acceptance
// gate: on every collective-test topology, Split two ways (contiguous
// halves with reversed keys, and parity interleaving) and run every
// collective on the sub-communicator — the per-comm topology must pick
// working algorithms whatever the member placement.
func TestSubCommCollectivesAllTopologies(t *testing.T) {
	splits := []struct {
		name  string
		color func(rank, np int) int
		key   func(rank int) int
	}{
		{"halves-reversed-keys",
			func(r, np int) int {
				if r < (np+1)/2 {
					return 0
				}
				return 1
			},
			func(r int) int { return -r }},
		{"parity",
			func(r, np int) int { return r % 2 },
			func(r int) int { return r }},
	}
	for _, tp := range collectiveTopologies {
		for _, sp := range splits {
			tp, sp := tp, sp
			t.Run(tp.name+"/"+sp.name, func(t *testing.T) {
				colors := make([]int, tp.np)
				keys := make([]int, tp.np)
				for r := 0; r < tp.np; r++ {
					colors[r] = sp.color(r, tp.np)
					keys[r] = sp.key(r)
				}
				want := expectSplit(tp.np, colors, keys)
				launch(t, tp, func(comm *mpi.Comm) {
					rank := comm.Rank()
					sub := comm.Split(colors[rank], keys[rank])
					g := sub.Group()

					// Membership and rank ordering.
					wg := want[colors[rank]]
					if len(g) != len(wg) {
						t.Errorf("rank %d: group size %d, want %d", rank, len(g), len(wg))
						return
					}
					for i := range g {
						if g[i] != wg[i] {
							t.Errorf("rank %d: group %v, want %v", rank, g, wg)
							return
						}
					}
					if g.WorldRank(sub.Rank()) != rank {
						t.Errorf("rank %d: sub rank %d maps to world %d",
							rank, sub.Rank(), g.WorldRank(sub.Rank()))
						return
					}

					size, me := sub.Size(), sub.Rank()
					const n = 192

					// Bcast from the last member.
					root := size - 1
					buf, b := sub.Alloc(n)
					if me == root {
						for i := range b {
							b[i] = byte(i*5 + colors[rank])
						}
					}
					sub.Bcast(buf, root)
					for i := range b {
						if b[i] != byte(i*5+colors[rank]) {
							t.Errorf("rank %d: sub bcast wrong at %d", rank, i)
							return
						}
					}

					// Reduce to member 0, then Allreduce.
					send, sb := sub.Alloc(8)
					recv, rb := sub.Alloc(8)
					mpi.PutInt64(sb, 0, int64(me+1))
					sub.Reduce(send, recv, mpi.Int64, mpi.Sum, 0)
					wantSum := int64(size) * int64(size+1) / 2
					if me == 0 && mpi.GetInt64(rb, 0) != wantSum {
						t.Errorf("rank %d: sub reduce = %d, want %d", rank, mpi.GetInt64(rb, 0), wantSum)
						return
					}
					sub.Allreduce(send, recv, mpi.Int64, mpi.Max)
					if mpi.GetInt64(rb, 0) != int64(size) {
						t.Errorf("rank %d: sub allreduce max = %d, want %d", rank, mpi.GetInt64(rb, 0), size)
						return
					}

					// Allgather.
					all, ab := sub.Alloc(n * size)
					for i := range b {
						b[i] = byte(me*13 + i)
					}
					sub.Allgather(buf, all)
					for r := 0; r < size; r++ {
						for i := 0; i < n; i++ {
							if ab[r*n+i] != byte(r*13+i) {
								t.Errorf("rank %d: sub allgather block %d wrong at %d", rank, r, i)
								return
							}
						}
					}

					// Barrier, then p2p in sub rank space.
					sub.Barrier()
					if size > 1 {
						peer := (me + 1) % size
						from := (me - 1 + size) % size
						st := sub.Sendrecv(send, peer, 7, recv, from, 7)
						if int(st.Source) != from {
							t.Errorf("rank %d: sub sendrecv source %d, want %d", rank, st.Source, from)
						}
					}
				})
			})
		}
	}
}

// TestSplitProperty drives random colors and keys over every topology:
// groups must partition the ranks, order by (key, parent rank), and a
// Bcast+Reduce on every sub-communicator must round-trip checksums.
func TestSplitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for _, tp := range collectiveTopologies {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				colors := make([]int, tp.np)
				keys := make([]int, tp.np)
				for r := range colors {
					colors[r] = rng.Intn(4) - 1 // -1 opts out (nil comm)
					keys[r] = rng.Intn(7) - 3
				}
				want := expectSplit(tp.np, colors, keys)

				// Partition check on the host: every opted-in rank in
				// exactly one group.
				seen := map[int]int{}
				for _, g := range want {
					for _, w := range g {
						seen[w]++
					}
				}
				for r := 0; r < tp.np; r++ {
					n := seen[r]
					if colors[r] < 0 && n != 0 || colors[r] >= 0 && n != 1 {
						t.Fatalf("trial %d: rank %d in %d groups (color %d)", trial, r, n, colors[r])
					}
				}

				launch(t, tp, func(comm *mpi.Comm) {
					rank := comm.Rank()
					sub := comm.Split(colors[rank], keys[rank])
					if colors[rank] < 0 {
						if sub != nil {
							t.Errorf("trial %d rank %d: negative color got a communicator", trial, rank)
						}
						return
					}
					g := sub.Group()
					wg := want[colors[rank]]
					for i := range g {
						if i >= len(wg) || g[i] != wg[i] {
							t.Errorf("trial %d rank %d: group %v, want %v", trial, rank, g, wg)
							return
						}
					}

					// Root broadcasts a color-seeded payload; every member
					// checksums it and a Sum-reduce back to the root must
					// equal size × the root's own checksum.
					n := 256 + 64*colors[rank]
					buf, b := sub.Alloc(n)
					var rootSum uint64
					if sub.Rank() == 0 {
						rng2 := rand.New(rand.NewSource(int64(colors[rank] + 1)))
						rng2.Read(b)
						for _, c := range b {
							rootSum = rootSum*131 + uint64(c)
						}
					}
					sub.Bcast(buf, 0)
					var local uint64
					for _, c := range b {
						local = local*131 + uint64(c)
					}
					send, sb := sub.Alloc(8)
					recv, rb := sub.Alloc(8)
					mpi.PutInt64(sb, 0, int64(local))
					sub.Reduce(send, recv, mpi.Int64, mpi.Sum, 0)
					if sub.Rank() == 0 {
						if got, wantSum := mpi.GetInt64(rb, 0), int64(rootSum)*int64(sub.Size()); got != wantSum {
							t.Errorf("trial %d color %d: checksum reduce = %d, want %d",
								trial, colors[rank], got, wantSum)
						}
					}
				})
			}
		})
	}
}

// TestDupContextIsolation: a Dup shares members and tags with its parent
// but must never match its traffic. Rank 1 sends on world first; rank 0
// receives on the dup first and must get the dup message, not the earlier
// world one.
func TestDupContextIsolation(t *testing.T) {
	for _, tp := range []topology{{"flat-np2", 2, 1}, {"smp-2x2", 4, 2}} {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			launch(t, tp, func(comm *mpi.Comm) {
				dup := comm.Dup()
				if dup.Rank() != comm.Rank() || dup.Size() != comm.Size() {
					t.Errorf("dup rank/size %d/%d differ from parent %d/%d",
						dup.Rank(), dup.Size(), comm.Rank(), comm.Size())
					return
				}
				switch comm.Rank() {
				case 1:
					buf, b := comm.Alloc(8)
					mpi.PutInt64(b, 0, 111)
					comm.Send(buf, 0, 5) // world first
					buf2, b2 := comm.Alloc(8)
					mpi.PutInt64(b2, 0, 222)
					dup.Send(buf2, 0, 5) // same peer, same tag, dup context
				case 0:
					comm.Compute(1e5) // let both sends land unexpected
					rd, rdb := comm.Alloc(8)
					st := dup.Recv(rd, mpi.AnySource, 5)
					if got := mpi.GetInt64(rdb, 0); got != 222 {
						t.Errorf("dup receive got %d (status %+v), want the dup message 222", got, st)
					}
					rw, rwb := comm.Alloc(8)
					comm.Recv(rw, 1, 5)
					if got := mpi.GetInt64(rwb, 0); got != 111 {
						t.Errorf("world receive got %d, want 111", got)
					}
				}
			})
		})
	}
}

// TestWildcardIsolationAcrossComms is the cross-communicator wildcard
// regression: concurrent AnySource receives on world and on a split
// communicator with identical tags — the engine must deliver each message
// on its own communicator, whether the receives are posted before or
// after the sends arrive.
func TestWildcardIsolationAcrossComms(t *testing.T) {
	for _, tp := range []topology{{"flat-np4", 4, 1}, {"smp-2x2", 4, 2}} {
		for _, order := range []string{"posted-first", "unexpected"} {
			tp, order := tp, order
			t.Run(tp.name+"/"+order, func(t *testing.T) {
				launch(t, tp, func(comm *mpi.Comm) {
					rank := comm.Rank()
					sub := comm.Split(rank%2, rank) // {0,2} and {1,3}
					const tag = 7
					switch rank {
					case 0:
						// Receives AnySource on both comms, identical tag.
						wbuf, wb := comm.Alloc(8)
						sbuf, sb := comm.Alloc(8)
						if order == "unexpected" {
							comm.Compute(1e5) // sends land first
						}
						wr := comm.Irecv(wbuf, mpi.AnySource, tag)
						sr := sub.Irecv(sbuf, mpi.AnySource, tag)
						wst := comm.Wait(wr)
						sst := sub.Wait(sr)
						if got := mpi.GetInt64(wb, 0); got != 111 {
							t.Errorf("world wildcard got %d, want 111 (status %+v)", got, wst)
						}
						if wst.Source != 1 {
							t.Errorf("world wildcard source %d, want 1", wst.Source)
						}
						if got := mpi.GetInt64(sb, 0); got != 222 {
							t.Errorf("sub wildcard got %d, want 222 (status %+v)", got, sst)
						}
						// World rank 2 is sub rank 1 in {0,2}.
						if sst.Source != 1 {
							t.Errorf("sub wildcard source %d, want sub rank 1", sst.Source)
						}
					case 1:
						// Not in rank 0's sub-comm: sends on world.
						buf, b := comm.Alloc(8)
						mpi.PutInt64(b, 0, 111)
						comm.Send(buf, 0, tag)
					case 2:
						// Shares rank 0's sub-comm: sends on it.
						buf, b := comm.Alloc(8)
						mpi.PutInt64(b, 0, 222)
						sub.Send(buf, 0, tag)
					}
				})
			})
		}
	}
}

// TestCollectiveScratchReuse: collectives must not allocate on every
// call — after one warm call per shape, further calls reuse the per-comm
// scratch (the Alloc-count assertion of the scratch-buffer refactor).
// Split's triple and table and, on flat-np6, Bruck's working copy are
// scratch too: a second Split or Allgather on a communicator is free, and
// so is a second scattered Alltoall. Each layout runs twice, the second
// time with the dissemination barrier forced, so its scratch is checked
// on the SMP layout too.
func TestCollectiveScratchReuse(t *testing.T) {
	for _, tp := range []topology{{"flat-np4", 4, 1}, {"flat-np6", 6, 1}, {"smp-4x2", 8, 2}} {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			for _, tun := range []*mpi.Tuning{nil, {Barrier: "dissemination"}} {
				launchTuned(t, tp, tun, func(comm *mpi.Comm) {
					const n = 16 << 10 // above the hier reduce cutoff
					send, _ := comm.Alloc(n)
					recv, _ := comm.Alloc(n)
					small, _ := comm.Alloc(8)
					smallR, _ := comm.Alloc(8)

					// Warm every scratch slot: barrier token and fan-in or
					// dissemination landing area, reduce accumulators (flat
					// small, hier large), bcast (no scratch).
					comm.Barrier()
					comm.Allreduce(small, smallR, mpi.Int64, mpi.Sum)
					comm.Allreduce(send, recv, mpi.Byte, mpi.Sum)
					all, _ := comm.Alloc(8 * comm.Size())
					comm.Allgather(small, all)
					comm.Split(comm.Rank()%2, 0)
					var a2a [2][2]mpi.Buffer // 256 B and 4 KiB blocks, send and recv
					for i, blk := range []int{256, 4 << 10} {
						a2a[i][0], _ = comm.Alloc(blk * comm.Size())
						a2a[i][1], _ = comm.Alloc(blk * comm.Size())
						comm.Alltoall(a2a[i][0], a2a[i][1])
					}

					before := comm.Allocs()
					for i := 0; i < 5; i++ {
						comm.Barrier()
						comm.Allreduce(small, smallR, mpi.Int64, mpi.Sum)
						comm.Allreduce(send, recv, mpi.Byte, mpi.Sum)
						comm.Allgather(small, all)
						comm.Split(comm.Rank()%2, 0)
						for _, bufs := range a2a {
							comm.Alltoall(bufs[0], bufs[1])
						}
					}
					if got := comm.Allocs(); got != before {
						t.Errorf("rank %d: steady-state collectives allocated %d times", comm.Rank(), got-before)
					}
				})
			}
		})
	}
}

// TestTuningForcedAlgorithms: every forced algorithm must stay correct on
// every layout — hierarchical picks fall back to flat where inapplicable,
// flat picks work on SMP layouts — and threading the override through
// cluster.Config must reach the launched communicators.
func TestTuningForcedAlgorithms(t *testing.T) {
	tunings := []struct {
		name string
		tun  mpi.Tuning
	}{
		{"forced-flat", mpi.Tuning{Bcast: "binomial", Reduce: "binomial",
			Allgather: "ring", Barrier: "dissemination"}},
		{"forced-hier", mpi.Tuning{Bcast: "hier-leader", Reduce: "hier",
			Allgather: "hier", Barrier: "hier"}},
	}
	for _, tp := range []topology{{"flat-np5", 5, 1}, {"smp-4x2", 8, 2}, {"smp-uneven-7ranks", 7, 4}} {
		for _, tc := range tunings {
			tp, tc := tp, tc
			t.Run(tp.name+"/"+tc.name, func(t *testing.T) {
				c := cluster.MustNew(cluster.Config{
					NP:           tp.np,
					CoresPerNode: tp.cpn,
					Transport:    cluster.TransportZeroCopy,
					Tuning:       &tc.tun,
				})
				defer c.Close()
				c.Launch(func(comm *mpi.Comm) {
					size, rank := comm.Size(), comm.Rank()
					const n = 96
					buf, b := comm.Alloc(n)
					if rank == 1 {
						for i := range b {
							b[i] = byte(i * 3)
						}
					}
					comm.Bcast(buf, 1)
					for i := range b {
						if b[i] != byte(i*3) {
							t.Errorf("rank %d: bcast wrong at %d", rank, i)
							return
						}
					}
					send, sb := comm.Alloc(8)
					recv, rb := comm.Alloc(8)
					mpi.PutInt64(sb, 0, int64(rank+1))
					comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
					if got := mpi.GetInt64(rb, 0); got != int64(size)*int64(size+1)/2 {
						t.Errorf("rank %d: allreduce = %d", rank, got)
						return
					}
					all, ab := comm.Alloc(n * size)
					for i := range b {
						b[i] = byte(rank*9 + i)
					}
					comm.Allgather(buf, all)
					for r := 0; r < size; r++ {
						for i := 0; i < n; i++ {
							if ab[r*n+i] != byte(r*9+i) {
								t.Errorf("rank %d: allgather block %d wrong", rank, r)
								return
							}
						}
					}
					comm.Barrier()
				})
			})
		}
	}
}

func TestParseTuning(t *testing.T) {
	tun, err := mpi.ParseTuning("bcast=hier-leader, reduce=binomial")
	if err != nil {
		t.Fatal(err)
	}
	if tun.Bcast != "hier-leader" || tun.Reduce != "binomial" {
		t.Fatalf("parsed %+v", tun)
	}
	if tun.Allgather != "" || tun.Barrier != "" {
		t.Fatalf("unforced collectives should stay empty: %+v", tun)
	}
	if _, err := mpi.ParseTuning("bcast=nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := mpi.ParseTuning("gather=ring"); err == nil {
		t.Fatal("unknown collective accepted")
	}
	if _, err := mpi.ParseTuning("bcast"); err == nil {
		t.Fatal("missing value accepted")
	}
	empty, err := mpi.ParseTuning("")
	if err != nil || empty != (mpi.Tuning{}) {
		t.Fatalf("empty list should parse to the default table: %+v, %v", empty, err)
	}
}

// TestRegistryTable walks every row of the registry: each registered name
// round-trips through Force and Forced and parses as a "coll=alg"
// override, and every name lookup panics on a collective the table lacks.
func TestRegistryTable(t *testing.T) {
	for _, coll := range mpi.Collectives() {
		for _, alg := range mpi.AlgorithmNames(coll) {
			var tun mpi.Tuning
			tun.Force(coll, alg)
			if got := tun.Forced(coll); got != alg {
				t.Errorf("Force(%q, %q) then Forced = %q", coll, alg, got)
			}
			if parsed, err := mpi.ParseTuning(coll + "=" + alg); err != nil || parsed.Forced(coll) != alg {
				t.Errorf("ParseTuning(%q) = %q, %v", coll+"="+alg, parsed.Forced(coll), err)
			}
		}
	}

	lookups := map[string]func(){
		"AlgorithmNames": func() { mpi.AlgorithmNames("gather") },
		"Forced":         func() { mpi.Tuning{}.Forced("gather") },
		"Force":          func() { new(mpi.Tuning).Force("gather", "ring") },
	}
	for name, fn := range lookups {
		if !panics(fn) {
			t.Errorf("%s accepted the unknown collective \"gather\"", name)
		}
	}
	launch(t, topology{"flat-np2", 2, 1}, func(comm *mpi.Comm) {
		if !panics(func() { comm.AlgorithmApplicable("gather", "ring") }) {
			t.Error("AlgorithmApplicable accepted the unknown collective \"gather\"")
		}
		if !panics(func() { comm.AlgorithmApplicable("bcast", "ring") }) {
			t.Error("AlgorithmApplicable accepted the unknown algorithm bcast/ring")
		}
	})
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
