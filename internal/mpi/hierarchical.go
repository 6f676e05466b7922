package mpi

import "fmt"

// SMP-aware collectives. When the cluster places several ranks per node
// (internal/cluster's CoresPerNode), the flat algorithms waste InfiniBand
// round trips between co-located ranks that could talk through shared
// memory at a fraction of the latency. The hierarchical algorithms split
// every collective into a leader level (one representative rank per node,
// over the network) and a node level (the node's ranks, over shm):
//
//	Bcast:     inter-node binomial over leaders, then intra-node binomial
//	Reduce:    intra-node binomial to the leader, then inter-node binomial
//	Allgather: intra-node gather, leader ring over node blocks, intra bcast
//	Barrier:   intra-node fan-in, leader dissemination, intra-node release
//
// These are the "hier" entries of the algorithm registry (algorithms.go);
// the default tuning table selects them on multi-rank-per-node layouts
// and the flat algorithms everywhere else, so the paper's testbed
// experiments are byte-for-byte unchanged. bench.AblationCollAlg compares
// the algorithms.

// topo is the node placement view a communicator computes over its own
// member set (in communicator rank space), so hierarchical algorithms
// work on any communicator, not just world.
type topo struct {
	nodeOf  []int // node id per comm rank
	local   []int // comm ranks on this rank's node, ascending
	leaders []int // lowest comm rank of each node, in first-appearance order
	counts  []int // ranks per node, parallel to leaders
	world   []int // identity group, for flat algorithms

	multi      bool // some node hosts more than one member
	contiguous bool // every node's members form one contiguous comm-rank range
}

func buildTopo(c *Comm) *topo {
	size := len(c.group)
	t := &topo{
		nodeOf: make([]int, size),
		world:  make([]int, size),
	}
	idxOf := make(map[int]int, size)
	for r := 0; r < size; r++ {
		t.world[r] = r
		t.nodeOf[r] = int(c.nodeOf[c.group[r]])
		n := t.nodeOf[r]
		if _, ok := idxOf[n]; !ok {
			idxOf[n] = len(t.leaders)
			t.leaders = append(t.leaders, r)
			t.counts = append(t.counts, 0)
		}
		t.counts[idxOf[n]]++
	}
	myNode := t.nodeOf[c.rank]
	for r := 0; r < size; r++ {
		if t.nodeOf[r] == myNode {
			t.local = append(t.local, r)
		}
	}
	t.multi = len(t.leaders) < size
	t.contiguous = true
	for i, lead := range t.leaders {
		for r := lead; r < lead+t.counts[i]; r++ {
			if r >= size || t.nodeOf[r] != t.nodeOf[lead] {
				t.contiguous = false
			}
		}
	}
	return t
}

// effLeaders returns the leader group for a rooted collective — one
// representative per node, with root standing in for its node's leader so
// data need not detour through a third rank — plus root's index in it.
func (t *topo) effLeaders(root int) (group []int, rootIdx int) {
	rootNode := t.nodeOf[root]
	group = make([]int, len(t.leaders))
	for i, lead := range t.leaders {
		if t.nodeOf[lead] == rootNode {
			group[i] = root
			rootIdx = i
		} else {
			group[i] = lead
		}
	}
	return group, rootIdx
}

// localRoot returns the rank representing this rank's node in a collective
// rooted at root: root itself on root's node, the node leader elsewhere.
func (t *topo) localRoot(root int) int {
	if t.nodeOf[root] == t.nodeOf[t.local[0]] {
		return root
	}
	return t.local[0]
}

func groupIndex(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("mpi: rank %d not in collective group %v", rank, group))
}

// --- generic group algorithms ---
// These run the flat schedules — binomial, dissemination, ring — over an
// arbitrary rank list, so one implementation serves the world
// communicator, the leader level and the node level. Every member of
// group must call with identical group and rootIdx.

// groupBcast broadcasts group[rootIdx]'s buffer over the group (binomial
// tree, correct for any group size).
func (c *Comm) groupBcast(buf Buffer, group []int, rootIdx, tag int) {
	n := len(group)
	if n <= 1 {
		return
	}
	me := groupIndex(group, c.Rank())
	vrank := (me - rootIdx + n) % n
	mask := 1
	if vrank != 0 {
		for mask < n {
			if vrank&mask != 0 {
				parent := group[(vrank-mask+rootIdx)%n]
				c.Recv2(buf, parent, tag)
				break
			}
			mask <<= 1
		}
		// mask now holds vrank's lowest set bit; children are below it.
	} else {
		for mask < n {
			mask <<= 1
		}
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		child := vrank + m
		if child < n {
			c.Send2(buf, group[(child+rootIdx)%n], tag)
		}
	}
}

// groupReduce combines send buffers elementwise into recv at
// group[rootIdx] (binomial tree). recv may be Buffer{} on other members.
func (c *Comm) groupReduce(send, recv Buffer, dt Datatype, op Op, group []int, rootIdx, tag int) {
	n := send.Len
	ng := len(group)
	me := groupIndex(group, c.Rank())
	if ng == 1 {
		copy(c.Bytes(recv), c.Bytes(send))
		return
	}
	vrank := (me - rootIdx + ng) % ng

	// Accumulate into per-comm scratch so the caller's send buffer is
	// untouched, as MPI requires.
	acc := c.scratch(&c.scr.acc, n)
	accBytes := c.Bytes(acc)
	copy(accBytes, c.Bytes(send))
	tmp := c.scratch(&c.scr.tmp, n)
	tmpBytes := c.Bytes(tmp)

	mask := 1
	for mask < ng {
		if vrank&mask == 0 {
			peer := vrank | mask
			if peer < ng {
				c.Recv2(tmp, group[(peer+rootIdx)%ng], tag)
				reduce(accBytes, tmpBytes, dt, op)
				c.chargeReduceFlops(n, dt)
			}
		} else {
			parent := group[((vrank&^mask)+rootIdx)%ng]
			c.Send2(acc, parent, tag)
			break
		}
		mask <<= 1
	}
	if me == rootIdx {
		copy(c.Bytes(recv), accBytes)
	}
}

// groupDissem is the dissemination barrier over group, me being the
// caller's index in it: at distance 1, 2, 4, … every member signals the
// member dist places ahead and waits for the one dist places behind.
func (c *Comm) groupDissem(group []int, me, tag int) {
	n := len(group)
	if n <= 1 {
		return
	}
	token := c.scratch(&c.scr.token, 1)
	in := c.scratch(&c.scr.in, 1)
	for dist := 1; dist < n; dist <<= 1 {
		rr := c.irecvCtx(in, group[(me-dist+n)%n], tag)
		sr := c.isendCtx(token, group[(me+dist)%n], tag)
		c.eng.Wait(c.p, sr)
		c.eng.Wait(c.p, rr)
	}
}

// groupRing is the ring allgather over group, me being the caller's index
// in it and blk(i) member i's block of the caller's buffer: at step s
// every member passes block me-s to its right neighbour and takes block
// me-s-1 from its left, so after len(group)-1 steps every member holds
// every block. Blocks may differ in size.
func (c *Comm) groupRing(group []int, me int, blk func(i int) Buffer, tag int) {
	n := len(group)
	right, left := group[(me+1)%n], group[(me-1+n)%n]
	for step := 0; step < n-1; step++ {
		rr := c.irecvCtx(blk((me-step-1+n)%n), left, tag)
		sr := c.isendCtx(blk((me-step+n)%n), right, tag)
		c.eng.Wait(c.p, sr)
		c.eng.Wait(c.p, rr)
	}
}

// --- hierarchical collectives ---

func (c *Comm) hierBcast(buf Buffer, root int) {
	rank := c.Rank()
	localRoot := c.t.localRoot(root)
	if rank == localRoot {
		leaders, rootIdx := c.t.effLeaders(root)
		c.groupBcast(buf, leaders, rootIdx, tagHBcastInter)
	}
	if len(c.t.local) > 1 {
		c.groupBcast(buf, c.t.local, groupIndex(c.t.local, localRoot), tagHBcastIntra)
	}
}

// hierReduce is the leader-based reduce (reduce/hier); the default tuning
// table dispatches to it at and above the cutoff.
func (c *Comm) hierReduce(send, recv Buffer, dt Datatype, op Op, root int) {
	rank := c.Rank()
	localRoot := c.t.localRoot(root)

	// Stage 1: combine the node's contributions at its representative.
	part := Buffer{}
	if rank == localRoot {
		part = c.scratch(&c.scr.part, send.Len)
	}
	c.groupReduce(send, part, dt, op, c.t.local, groupIndex(c.t.local, localRoot), tagHReduceIntra)

	// Stage 2: combine node partials at root.
	if rank == localRoot {
		leaders, rootIdx := c.t.effLeaders(root)
		c.groupReduce(part, recv, dt, op, leaders, rootIdx, tagHReduceInter)
	}
}

func (c *Comm) hierAllgather(send, recv Buffer) {
	size, rank := c.Size(), c.Rank()
	n := send.Len
	t := c.t
	lead := t.local[0]

	// Stage 1: the leader collects the node's blocks at their final
	// offsets (node blocks are contiguous; dispatch checks that).
	if rank == lead {
		copy(c.Bytes(Slice(recv, rank*n, n)), c.Bytes(send))
		reqs := make([]*Request, 0, len(t.local)-1)
		for _, r := range t.local {
			if r == lead {
				continue
			}
			reqs = append(reqs, c.irecvCtx(Slice(recv, r*n, n), r, tagHGatherUp))
		}
		c.WaitAll(reqs...)
	} else {
		c.Send2(send, lead, tagHGatherUp)
	}

	// Stage 2: ring over the leaders, moving whole node blocks (variable
	// sizes: the last node may be partially filled).
	if rank == lead {
		c.groupRing(t.leaders, groupIndex(t.leaders, lead), func(i int) Buffer {
			return Slice(recv, t.leaders[i]*n, t.counts[i]*n)
		}, tagHAllgatherRing)
	}

	// Stage 3: the leader shares the assembled result over shared memory.
	// Only the n*size allgather region moves: recv may legally be larger,
	// and bytes past the region must stay untouched.
	if len(t.local) > 1 {
		c.groupBcast(Slice(recv, 0, n*size), t.local, 0, tagHGatherDown)
	}
}

func (c *Comm) hierBarrier() {
	rank := c.Rank()
	t := c.t
	lead := t.local[0]
	token := c.scratch(&c.scr.token, 1)

	// Stage 1: node fan-in to the leader.
	if rank != lead {
		c.Send2(token, lead, tagHBarrierUp)
	} else if len(t.local) > 1 {
		in := c.scratch(&c.scr.in, len(t.local)-1)
		reqs := make([]*Request, 0, len(t.local)-1)
		for i, r := range t.local {
			if r == lead {
				continue
			}
			reqs = append(reqs, c.irecvCtx(Slice(in, i-1, 1), r, tagHBarrierUp))
		}
		c.WaitAll(reqs...)
	}

	// Stage 2: dissemination among the leaders.
	if rank == lead {
		c.groupDissem(t.leaders, groupIndex(t.leaders, lead), tagHBarrierDissem)
	}

	// Stage 3: node release.
	if len(t.local) > 1 {
		c.groupBcast(token, t.local, 0, tagHBarrierDown)
	}
}
