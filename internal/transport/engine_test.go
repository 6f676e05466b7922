package transport

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
)

func newEngine(size int) (*Engine, *des.Engine, *model.Node) {
	eng := des.NewEngine()
	prm := model.Testbed()
	fab := ib.NewFabric(eng, prm)
	node := model.NewNode(0, prm)
	hca := fab.NewHCA(node)
	return NewEngine(0, size, hca), eng, node
}

// fakeEP records sends and rendezvous accepts for engine tests.
type fakeEP struct {
	threshold int
	eager     []Envelope
	rndv      []Envelope
	accepted  []uint64
	dst       Buffer
	polled    int
}

func (f *fakeEP) SendEager(p *des.Proc, env Envelope, payload Buffer, onDone func(p *des.Proc)) {
	f.eager = append(f.eager, env)
	if onDone != nil {
		onDone(p)
	}
}

func (f *fakeEP) SendRendezvous(p *des.Proc, env Envelope, payload Buffer, onDone func(p *des.Proc)) {
	f.rndv = append(f.rndv, env)
	if onDone != nil {
		onDone(p)
	}
}

func (f *fakeEP) AcceptRendezvous(p *des.Proc, id uint64, dst Buffer, done func(p *des.Proc)) {
	f.accepted = append(f.accepted, id)
	f.dst = dst
	if done != nil {
		done(p)
	}
}

func (f *fakeEP) RendezvousThreshold() int { return f.threshold }
func (f *fakeEP) Poll(*des.Proc) bool      { f.polled++; return false }

func run(eng *des.Engine, body func(p *des.Proc)) {
	eng.Spawn("t", body)
	eng.Run()
}

func TestEngineAccessors(t *testing.T) {
	e, _, node := newEngine(2)
	if e.Rank() != 0 || e.Size() != 2 || e.Node() != node || e.HCA() == nil || e.HCA().Node() != node {
		t.Fatal("accessors broken")
	}
	if e.Endpoint(1) != nil {
		t.Fatal("endpoint should be unset")
	}
	ep := &fakeEP{}
	e.SetEndpoint(1, ep)
	if e.Endpoint(1) != Endpoint(ep) {
		t.Fatal("SetEndpoint/Endpoint roundtrip failed")
	}
}

// ProgressUntil polls before every re-check and returns without a pass
// once the predicate already holds.
func TestProgressUntil(t *testing.T) {
	e, eng, _ := newEngine(2)
	ep := &fakeEP{}
	e.SetEndpoint(1, ep)
	run(eng, func(p *des.Proc) {
		e.ProgressUntil(p, func() bool { return true })
		if ep.polled != 0 {
			t.Fatalf("satisfied predicate still polled %d times", ep.polled)
		}
		e.ProgressUntil(p, func() bool { return ep.polled >= 1 })
		if ep.polled != 1 {
			t.Fatalf("polled %d times, want 1", ep.polled)
		}
	})
}

func TestPostedRecvMatchesInOrder(t *testing.T) {
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		va1, b1 := node.Mem.Alloc(16)
		va2, b2 := node.Mem.Alloc(16)
		r1 := e.Irecv(p, 1, 5, 0, Buffer{Addr: va1, Len: 16})
		r2 := e.Irecv(p, 1, 5, 0, Buffer{Addr: va2, Len: 16})

		// Same envelope twice: must match posted receives in order.
		env := Envelope{Src: 1, Tag: 5, Ctx: 0, Len: 4}
		s1 := e.ArriveEager(p, env)
		if s1.Buf.Addr != va1 {
			t.Fatalf("first arrival matched %#x, want first posted %#x", s1.Buf.Addr, va1)
		}
		copy(node.Mem.MustResolve(s1.Buf.Addr, 4), []byte{1, 2, 3, 4})
		s1.Done(p)
		if !r1.Done() || r2.Done() {
			t.Fatal("completion order wrong")
		}
		s2 := e.ArriveEager(p, env)
		if s2.Buf.Addr != va2 {
			t.Fatalf("second arrival matched %#x, want %#x", s2.Buf.Addr, va2)
		}
		s2.Done(p)
		if !r2.Done() {
			t.Fatal("second receive incomplete")
		}
		if b1[0] != 1 || b2[0] != 0 {
			t.Fatal("payload placement wrong")
		}
		if st := r1.Status(); st.Source != 1 || st.Tag != 5 || st.Len != 4 {
			t.Fatalf("status = %+v", st)
		}
	})
}

func TestWildcardMatching(t *testing.T) {
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		va, _ := node.Mem.Alloc(16)
		req := e.Irecv(p, AnySource, AnyTag, 0, Buffer{Addr: va, Len: 16})
		sink := e.ArriveEager(p, Envelope{Src: 1, Tag: 77, Ctx: 0, Len: 0})
		sink.Done(p)
		if !req.Done() {
			t.Fatal("wildcard receive did not complete")
		}
		if st := req.Status(); st.Source != 1 || st.Tag != 77 {
			t.Fatalf("status = %+v", st)
		}
	})
}

func TestContextSeparation(t *testing.T) {
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		va, _ := node.Mem.Alloc(16)
		req := e.Irecv(p, 1, 5, 0, Buffer{Addr: va, Len: 16})
		// Same src/tag, different context: must go unexpected, not match.
		sink := e.ArriveEager(p, Envelope{Src: 1, Tag: 5, Ctx: 1, Len: 0})
		sink.Done(p)
		if req.Done() {
			t.Fatal("cross-context match")
		}
	})
}

// TestSiblingContextIsolation: communicators materialize at the engine as
// context-id pairs, and traffic on sibling communicators — same peers,
// same tags — must never cross-match, including under AnySource/AnyTag
// wildcards and on the rendezvous path. Regression test for the
// per-communicator context-id space above the fixed world pair.
func TestSiblingContextIsolation(t *testing.T) {
	// Context pairs (2,3) and (4,5): two communicators derived over the
	// same ranks.
	const ctxA, ctxB int32 = 2, 4
	e, eng, node := newEngine(3)
	epA, epB := &fakeEP{}, &fakeEP{}
	e.SetEndpoint(1, epA)
	e.SetEndpoint(2, epB)
	run(eng, func(p *des.Proc) {
		// A wildcard receive on comm A must not see an eager arrival with
		// the same source and tag on comm B.
		va, ba := node.Mem.Alloc(8)
		ra := e.Irecv(p, AnySource, AnyTag, ctxA, Buffer{Addr: va, Len: 8})
		sinkB := e.ArriveEager(p, Envelope{Src: 1, Tag: 9, Ctx: ctxB, Len: 4})
		copy(node.Mem.MustResolve(sinkB.Buf.Addr, 4), []byte{4, 3, 2, 1})
		sinkB.Done(p)
		if ra.Done() {
			t.Fatal("comm-B eager traffic matched a comm-A wildcard receive")
		}

		// The queued comm-B unexpected message completes only a comm-B
		// receive; the comm-A wildcard keeps waiting.
		vb, bb := node.Mem.Alloc(8)
		rb := e.Irecv(p, AnySource, AnyTag, ctxB, Buffer{Addr: vb, Len: 8})
		if !rb.Done() || ra.Done() {
			t.Fatal("unexpected-queue match crossed communicators")
		}
		if st := rb.Status(); st.Source != 1 || st.Tag != 9 || bb[0] != 4 {
			t.Fatalf("comm-B receive got %+v payload %v", st, bb[:4])
		}

		// Rendezvous: an RTS on comm B must not be accepted by the posted
		// comm-A wildcard — and must still be accepted by a later comm-B
		// receive, on the endpoint it arrived on.
		e.ArriveRTS(p, Envelope{Src: 2, Tag: 9, Ctx: ctxB, Len: 4096}, epB, 21)
		if len(epA.accepted) != 0 || len(epB.accepted) != 0 {
			t.Fatal("comm-B RTS accepted by a comm-A wildcard receive")
		}
		vc, _ := node.Mem.Alloc(4096)
		rc := e.Irecv(p, AnySource, 9, ctxB, Buffer{Addr: vc, Len: 4096})
		if len(epB.accepted) != 1 || epB.accepted[0] != 21 {
			t.Fatalf("comm-B rendezvous accepts = %v, want [21]", epB.accepted)
		}
		if !rc.Done() || rc.Status().Source != 2 {
			t.Fatalf("comm-B rendezvous receive incomplete: %+v", rc.Status())
		}

		// The comm-A wildcard finally matches comm-A traffic.
		sinkA := e.ArriveEager(p, Envelope{Src: 1, Tag: 9, Ctx: ctxA, Len: 4})
		copy(node.Mem.MustResolve(sinkA.Buf.Addr, 4), []byte{7, 7, 7, 7})
		sinkA.Done(p)
		if !ra.Done() || ba[0] != 7 {
			t.Fatal("comm-A wildcard receive did not get comm-A traffic")
		}
	})
}

func TestUnexpectedThenRecvCopies(t *testing.T) {
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		env := Envelope{Src: 1, Tag: 9, Ctx: 0, Len: 8}
		sink := e.ArriveEager(p, env)
		copy(node.Mem.MustResolve(sink.Buf.Addr, 8), []byte("abcdefgh"))
		sink.Done(p)

		va, b := node.Mem.Alloc(8)
		req := e.Irecv(p, 1, 9, 0, Buffer{Addr: va, Len: 8})
		if !req.Done() {
			t.Fatal("unexpected message should complete the receive at post")
		}
		if string(b) != "abcdefgh" {
			t.Fatalf("copied %q", b)
		}
	})
}

// TestUnexpectedScratchIsRecycled: once a receive has drained an unexpected
// payload its scratch storage serves the next early sender — at a fresh
// address, so address-keyed state above (the pin-down cache) sees what it
// saw when every arrival allocated anew — instead of living as long as the
// rank does.
func TestUnexpectedScratchIsRecycled(t *testing.T) {
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		va, b := node.Mem.Alloc(100)
		var first []byte
		var prev uint64
		for i := 0; i < 5; i++ {
			n := 70 + i // one size class
			sink := e.ArriveEager(p, Envelope{Src: 1, Tag: 9, Ctx: 0, Len: n})
			if sink.Buf.Addr <= prev {
				t.Fatalf("arrival %d at %#x: not a fresh address after %#x", i, sink.Buf.Addr, prev)
			}
			if _, err := node.Mem.Resolve(prev, 1); i > 0 && err == nil {
				t.Errorf("drained address %#x still mapped", prev)
			}
			prev = sink.Buf.Addr
			scratch := node.Mem.MustResolve(sink.Buf.Addr, n)
			if i == 0 {
				first = scratch
			} else if &scratch[0] != &first[0] {
				t.Fatalf("arrival %d got new storage; want the drained buffer back", i)
			}
			scratch[n-1] = byte(i + 1)
			sink.Done(p)
			if !e.Irecv(p, 1, 9, 0, Buffer{Addr: va, Len: 100}).Done() || b[n-1] != byte(i+1) {
				t.Fatalf("arrival %d not delivered", i)
			}
		}
	})
}

func TestUnexpectedStreamingHandover(t *testing.T) {
	// Receive posted while the unexpected payload is still arriving: the
	// completion copies it out when the stream finishes.
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		env := Envelope{Src: 1, Tag: 2, Ctx: 0, Len: 4}
		sink := e.ArriveEager(p, env) // payload not complete yet

		va, b := node.Mem.Alloc(4)
		req := e.Irecv(p, 1, 2, 0, Buffer{Addr: va, Len: 4})
		if req.Done() {
			t.Fatal("receive completed before payload arrived")
		}
		copy(node.Mem.MustResolve(sink.Buf.Addr, 4), []byte{9, 8, 7, 6})
		sink.Done(p)
		if !req.Done() || b[0] != 9 {
			t.Fatal("handover did not deliver the payload")
		}
	})
}

func TestRendezvousDeferredUntilPosted(t *testing.T) {
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		ep := &fakeEP{}
		e.ArriveRTS(p, Envelope{Src: 1, Tag: 3, Ctx: 0, Len: 1000}, ep, 42)
		if len(ep.accepted) != 0 {
			t.Fatal("RTS accepted before a receive was posted")
		}
		va, _ := node.Mem.Alloc(1000)
		req := e.Irecv(p, 1, 3, 0, Buffer{Addr: va, Len: 1000})
		if len(ep.accepted) != 1 || ep.accepted[0] != 42 {
			t.Fatalf("accepted = %v", ep.accepted)
		}
		if ep.dst.Addr != va || ep.dst.Len != 1000 {
			t.Fatalf("rendezvous destination = %+v", ep.dst)
		}
		if !req.Done() {
			t.Fatal("receive should complete via the accept callback")
		}
	})
}

func TestRendezvousMatchesPostedImmediately(t *testing.T) {
	e, eng, node := newEngine(2)
	run(eng, func(p *des.Proc) {
		va, _ := node.Mem.Alloc(500)
		e.Irecv(p, 1, 4, 0, Buffer{Addr: va, Len: 500})
		ep := &fakeEP{}
		e.ArriveRTS(p, Envelope{Src: 1, Tag: 4, Ctx: 0, Len: 500}, ep, 7)
		if len(ep.accepted) != 1 {
			t.Fatal("posted receive should accept the RTS immediately")
		}
	})
}

func TestWildcardRendezvousResolvesArrivalEndpoint(t *testing.T) {
	// Regression: a rendezvous matched through AnySource/AnyTag must be
	// accepted on the endpoint the RTS arrived on. An engine that resolves
	// the endpoint from the posted source rank instead would answer the
	// wrong peer (or none at all, the posted source being -1).
	e, eng, node := newEngine(3)
	ep1, ep2 := &fakeEP{}, &fakeEP{}
	e.SetEndpoint(1, ep1)
	e.SetEndpoint(2, ep2)

	run(eng, func(p *des.Proc) {
		// RTS queued unexpectedly from rank 2, then a wildcard receive.
		e.ArriveRTS(p, Envelope{Src: 2, Tag: 6, Ctx: 0, Len: 4096}, ep2, 11)
		va, _ := node.Mem.Alloc(4096)
		req := e.Irecv(p, AnySource, AnyTag, 0, Buffer{Addr: va, Len: 4096})
		if len(ep1.accepted) != 0 {
			t.Fatal("rendezvous answered on the wrong peer's endpoint")
		}
		if len(ep2.accepted) != 1 || ep2.accepted[0] != 11 {
			t.Fatalf("arrival endpoint accepts = %v, want [11]", ep2.accepted)
		}
		if st := req.Status(); st.Source != 2 || st.Tag != 6 || st.Len != 4096 {
			t.Fatalf("status = %+v", st)
		}

		// Posted wildcard first, RTS second: same invariant.
		vb, _ := node.Mem.Alloc(4096)
		req2 := e.Irecv(p, AnySource, 8, 0, Buffer{Addr: vb, Len: 4096})
		e.ArriveRTS(p, Envelope{Src: 2, Tag: 8, Ctx: 0, Len: 4096}, ep2, 12)
		if len(ep2.accepted) != 2 || ep2.accepted[1] != 12 {
			t.Fatalf("arrival endpoint accepts = %v, want [11 12]", ep2.accepted)
		}
		if !req2.Done() || req2.Status().Source != 2 {
			t.Fatalf("wildcard rendezvous receive incomplete or missourced: %+v", req2.Status())
		}
	})
}

func TestIsendPicksProtocolByThreshold(t *testing.T) {
	e, eng, node := newEngine(2)
	ep := &fakeEP{threshold: 1 << 10}
	e.SetEndpoint(1, ep)
	run(eng, func(p *des.Proc) {
		va, _ := node.Mem.Alloc(2 << 10)
		e.Isend(p, 1, 0, 0, Buffer{Addr: va, Len: 64})
		e.Isend(p, 1, 1, 0, Buffer{Addr: va, Len: 1 << 10}) // at threshold: rendezvous
		e.Isend(p, 1, 2, 0, Buffer{Addr: va, Len: 2 << 10})
		if len(ep.eager) != 1 || ep.eager[0].Tag != 0 {
			t.Fatalf("eager sends = %+v", ep.eager)
		}
		if len(ep.rndv) != 2 || ep.rndv[0].Tag != 1 || ep.rndv[1].Tag != 2 {
			t.Fatalf("rendezvous sends = %+v", ep.rndv)
		}

		// Threshold 0: everything is the endpoint's own business.
		ep0 := &fakeEP{}
		e.SetEndpoint(1, ep0)
		e.Isend(p, 1, 3, 0, Buffer{Addr: va, Len: 2 << 10})
		if len(ep0.eager) != 1 || len(ep0.rndv) != 0 {
			t.Fatalf("threshold-0 endpoint saw eager=%d rndv=%d, want 1/0",
				len(ep0.eager), len(ep0.rndv))
		}
	})
}

func TestProgressRoundRobinPollsEveryEndpoint(t *testing.T) {
	e, eng, _ := newEngine(4)
	eps := []*fakeEP{{}, {}, {}}
	for i, ep := range eps {
		e.SetEndpoint(int32(i+1), ep)
	}
	run(eng, func(p *des.Proc) {
		for pass := 0; pass < 5; pass++ {
			e.Progress(p, false)
		}
		for i, ep := range eps {
			if ep.polled != 5 {
				t.Errorf("endpoint %d polled %d times, want 5", i+1, ep.polled)
			}
		}
	})

	// The ready set (DESIGN.md §18): an endpoint whose slot holds a free idle
	// answer is not polled, and nothing a poll does may notice. The same
	// seeded script — work handed out between passes, from the shared poll
	// and from other endpoints' polls mid-pass, slots touched with no work
	// behind the touch, endpoints replaced as a re-dial does — runs on an
	// engine whose endpoints always answer busy and is polled in full; the
	// polls that did something, pass by pass, and the cursor must agree.
	for seed := int64(1); seed <= 4; seed++ {
		refLog, refRR, refPolls := runArmScript(t, seed, false)
		log, rr, polls := runArmScript(t, seed, true)
		if !slices.Equal(log, refLog) {
			t.Errorf("seed %d: the log of useful polls has %d entries, or another order; the poll-everything engine's has %d",
				seed, len(log), len(refLog))
		}
		if !slices.Equal(rr, refRR) {
			t.Errorf("seed %d: cursor sequence differs from the poll-everything engine", seed)
		}
		if polls >= refPolls {
			t.Errorf("seed %d: %d polls with the ready set, %d without: idle endpoints are still visited", seed, polls, refPolls)
		}
	}
}

// scriptEP is an endpoint with a count of queued work: a poll moves one
// unit. With free set its idle answer is free while it holds no work, and it
// fails the test when polled holding none; without, it always answers busy.
// Handing it work touches its slot.
type scriptEP struct {
	fakeEP
	t      *testing.T
	peer   int32
	free   bool
	touch  func()
	asks   int
	work   int
	log    *[]int32
	onPoll func() // one-shot side effect of the next poll that moves something
}

func (s *scriptEP) IdlePoll() (des.Step, bool) {
	s.asks++
	return des.Step{}, s.free && s.work == 0
}

func (s *scriptEP) WatchIdle(touch func()) { s.touch = touch }

func (s *scriptEP) give(n int) {
	s.work += n
	s.touch()
}

func (s *scriptEP) Poll(*des.Proc) bool {
	if s.work == 0 {
		if s.free {
			s.t.Errorf("peer %d polled while its answer was free", s.peer)
		}
		return false
	}
	*s.log = append(*s.log, s.peer)
	s.give(-1)
	if f := s.onPoll; f != nil {
		s.onPoll = nil
		f()
	}
	return true
}

// runArmScript drives one engine through the seeded script and returns the
// peers whose polls moved something (-1 closes each pass), the cursor after
// every pass and the number of Poll calls. free selects whether the script's
// endpoints answer free while they hold no work; every third answers busy
// either way, and the random stream does not depend on it.
func runArmScript(t *testing.T, seed int64, free bool) (log []int32, rrs []int, polls uint64) {
	e, eng, _ := newEngine(16)
	rng := rand.New(rand.NewSource(seed))
	peers := []int32{1, 3, 4, 7, 8, 9, 12, 15}
	eps := make([]*scriptEP, len(peers))
	install := func(i int, promise bool, work int) {
		eps[i] = &scriptEP{t: t, peer: peers[i], free: free && promise, work: work, log: &log}
		e.SetEndpoint(peers[i], eps[i])
	}
	for i := range peers {
		install(i, i%3 != 2, 0)
	}
	var fromShared []int // endpoints the next shared poll hands work to
	e.AddSharedPoll(func(*des.Proc) bool {
		for _, i := range fromShared {
			eps[i].give(1)
		}
		fromShared = fromShared[:0]
		return false
	})
	run(eng, func(p *des.Proc) {
		for pass := 0; pass < 600; pass++ {
			for n := rng.Intn(3); n > 0; n-- {
				eps[rng.Intn(len(eps))].give(1 + rng.Intn(3))
			}
			if rng.Intn(4) == 0 {
				fromShared = append(fromShared, rng.Intn(len(eps)))
			}
			if from, to := rng.Intn(len(eps)), rng.Intn(len(eps)); rng.Intn(4) == 0 {
				eps[from].give(1)
				eps[from].onPoll = func() { eps[to].give(1) }
			}
			if i, promise, work := rng.Intn(len(eps)), rng.Intn(3) > 0, rng.Intn(2); rng.Intn(16) == 0 {
				install(i, promise, work)
			}
			// A touch with no work behind it, as a consumer freeing a cell
			// touches a sender that was not waiting for one: the slot is
			// asked again, and answers free, without a poll.
			poked, asks := -1, 0
			if i := rng.Intn(len(eps)); rng.Intn(4) == 0 && eps[i].work == 0 {
				poked, asks = i, eps[i].asks
				eps[i].touch()
			}
			e.Progress(p, false)
			if poked >= 0 && eps[poked].asks == asks {
				t.Errorf("seed %d pass %d: peer %d was touched but not asked", seed, pass, peers[poked])
			}
			log = append(log, -1)
			rrs = append(rrs, e.rr)
			visit := 0
			for _, a := range e.held {
				if !a.free() {
					visit++
				}
			}
			if visit != e.visit {
				t.Fatalf("pass %d: %d slots to visit, engine counts %d", pass, visit, e.visit)
			}
		}
	})
	return log, rrs, e.ProgressStats().Polls
}

// BenchmarkProgressIdlePeers: a blocked rank is woken with nothing to do and
// blocks again, with 1, 16 and 64 connected peers whose idle poll is free.
// The wake-up's cost must not depend on the peer count (it was one Poll per
// peer before the ready set) and must allocate nothing.
func BenchmarkProgressIdlePeers(b *testing.B) {
	for _, peers := range []int{1, 16, 64} {
		b.Run(strconv.Itoa(peers), func(b *testing.B) {
			e, eng, _ := newEngine(peers + 1)
			for i := 1; i <= peers; i++ {
				e.SetEndpoint(int32(i), &scriptEP{free: true})
			}
			done := false
			eng.Spawn("rank", func(p *des.Proc) {
				for !done {
					e.Progress(p, true)
				}
			})
			eng.Spawn("waker", func(p *des.Proc) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Sleep(des.Microsecond)
					done = i == b.N-1
					e.hca.NotifyMemWrite()
				}
			})
			eng.Run()
			if st := e.ProgressStats(); st.Polls != 0 || st.Passes < uint64(b.N) {
				b.Fatalf("%d passes polled %d endpoints, want >= %d and 0", st.Passes, st.Polls, b.N)
			}
		})
	}
}

func TestTruncationIsFatal(t *testing.T) {
	e, eng, node := newEngine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("truncated receive should be fatal")
		}
	}()
	run(eng, func(p *des.Proc) {
		va, _ := node.Mem.Alloc(4)
		e.Irecv(p, 1, 5, 0, Buffer{Addr: va, Len: 4})
		e.ArriveEager(p, Envelope{Src: 1, Tag: 5, Ctx: 0, Len: 100})
	})
}
