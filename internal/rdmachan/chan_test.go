package rdmachan

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
)

var allDesigns = []Design{DesignBasic, DesignPiggyback, DesignPipeline, DesignZeroCopy}

// harness builds a two-node simulation with one connection.
type harness struct {
	eng   *des.Engine
	prm   *model.Params
	nodes [2]*model.Node
	hcas  [2]*ib.HCA
	eps   [2]Endpoint
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	return newHarnessMode(t, cfg, false)
}

// newHarnessMode is newHarness with the fault-survival mode a cluster
// derives from its fault plan.
func newHarnessMode(t *testing.T, cfg Config, resilient bool) *harness {
	t.Helper()
	h := &harness{eng: des.NewEngine(), prm: model.Testbed()}
	fab := ib.NewFabric(h.eng, h.prm)
	for i := 0; i < 2; i++ {
		h.nodes[i] = model.NewNode(i, h.prm)
		h.hcas[i] = fab.NewHCA(h.nodes[i])
	}
	h.eng.Spawn("setup", func(p *des.Proc) {
		a, b, err := NewConnectionRails(p, cfg, h.hcas[:1], h.hcas[1:], nil, nil, resilient)
		if err != nil {
			t.Errorf("NewConnectionRails: %v", err)
			return
		}
		h.eps[0], h.eps[1] = a, b
	})
	h.eng.Run()
	if h.eps[0] == nil {
		t.Fatal("connection setup failed")
	}
	return h
}

// alloc carves a buffer on node i and returns its descriptor and bytes.
func (h *harness) alloc(i, n int) (Buffer, []byte) {
	va, b := h.nodes[i].Mem.Alloc(n)
	return Buffer{Addr: va, Len: n}, b
}

func TestAdvance(t *testing.T) {
	bufs := []Buffer{{Addr: 100, Len: 10}, {Addr: 200, Len: 5}}
	out := Advance(bufs, 3)
	if len(out) != 2 || out[0].Addr != 103 || out[0].Len != 7 {
		t.Fatalf("Advance(3) = %v", out)
	}
	out = Advance(bufs, 10)
	if len(out) != 1 || out[0].Addr != 200 || out[0].Len != 5 {
		t.Fatalf("Advance(10) = %v", out)
	}
	out = Advance(bufs, 15)
	if len(out) != 0 {
		t.Fatalf("Advance(15) = %v", out)
	}
	if Total(bufs) != 15 {
		t.Fatalf("Total = %d", Total(bufs))
	}
}

// TestTransferIntegrity moves messages of many sizes through every design
// and verifies the bytes arrive intact and in order.
func TestTransferIntegrity(t *testing.T) {
	sizes := []int{1, 4, 64, 1000, 4096, 16*1024 - 17, 16 << 10, 40000, 128 << 10, 1 << 20}
	for _, d := range allDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			for _, size := range sizes {
				if d == DesignBasic && size > 48<<10 {
					continue // basic ring is 64K; the paper only runs it to 64K
				}
				h := newHarness(t, Config{Design: d})
				sb, sbytes := h.alloc(0, size)
				rb, rbytes := h.alloc(1, size)
				rng := rand.New(rand.NewSource(int64(size)))
				rng.Read(sbytes)

				h.eng.Spawn("sender", func(p *des.Proc) {
					if err := PutAll(p, h.eps[0], []Buffer{sb}); err != nil {
						t.Errorf("size %d: put: %v", size, err)
					}
				})
				h.eng.Spawn("receiver", func(p *des.Proc) {
					if err := GetAll(p, h.eps[1], []Buffer{rb}); err != nil {
						t.Errorf("size %d: get: %v", size, err)
					}
				})
				h.eng.Run()
				if !bytes.Equal(sbytes, rbytes) {
					t.Fatalf("design %v size %d: payload corrupted", d, size)
				}
			}
		})
	}
}

// TestFIFOAcrossMessages checks pipe ordering: a burst of differently-sized
// messages arrives in order with no interleaving corruption.
func TestFIFOAcrossMessages(t *testing.T) {
	for _, d := range allDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			h := newHarness(t, Config{Design: d})
			sizes := []int{100, 8000, 3, 30000, 17, 12000}
			if d == DesignBasic {
				sizes = []int{100, 8000, 3, 30000, 17, 12000}
			}
			var sendBufs []Buffer
			var wantAll [][]byte
			for i, s := range sizes {
				b, bb := h.alloc(0, s)
				for j := range bb {
					bb[j] = byte(i*31 + j)
				}
				sendBufs = append(sendBufs, b)
				wantAll = append(wantAll, bb)
			}
			var recvBufs []Buffer
			var gotAll [][]byte
			for _, s := range sizes {
				b, bb := h.alloc(1, s)
				recvBufs = append(recvBufs, b)
				gotAll = append(gotAll, bb)
			}
			h.eng.Spawn("sender", func(p *des.Proc) {
				for _, b := range sendBufs {
					if err := PutAll(p, h.eps[0], []Buffer{b}); err != nil {
						t.Errorf("put: %v", err)
					}
				}
			})
			h.eng.Spawn("receiver", func(p *des.Proc) {
				for _, b := range recvBufs {
					if err := GetAll(p, h.eps[1], []Buffer{b}); err != nil {
						t.Errorf("get: %v", err)
					}
				}
			})
			h.eng.Run()
			for i := range wantAll {
				if !bytes.Equal(wantAll[i], gotAll[i]) {
					t.Fatalf("message %d corrupted", i)
				}
			}
		})
	}
}

// TestBidirectionalSimultaneous exercises both pipe directions at once
// (ping-pong piggybacks credits on reverse traffic). Sizes stay below the
// zero-copy threshold: simultaneous rendezvous sends without interleaved
// progress deadlock by design, exactly like an unsafe MPI program (see
// TestSimultaneousRendezvousNeedsProgress).
func TestBidirectionalSimultaneous(t *testing.T) {
	for _, d := range allDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			h := newHarness(t, Config{Design: d})
			const size = 8 << 10
			s0, s0b := h.alloc(0, size)
			r1, r1b := h.alloc(1, size)
			s1, s1b := h.alloc(1, size)
			r0, r0b := h.alloc(0, size)
			fill := func(b []byte, seed byte) {
				for i := range b {
					b[i] = seed ^ byte(i)
				}
			}
			fill(s0b, 0xA5)
			fill(s1b, 0x3C)
			h.eng.Spawn("rank0", func(p *des.Proc) {
				if err := PutAll(p, h.eps[0], []Buffer{s0}); err != nil {
					t.Errorf("rank0 put: %v", err)
				}
				if err := GetAll(p, h.eps[0], []Buffer{r0}); err != nil {
					t.Errorf("rank0 get: %v", err)
				}
			})
			h.eng.Spawn("rank1", func(p *des.Proc) {
				if err := PutAll(p, h.eps[1], []Buffer{s1}); err != nil {
					t.Errorf("rank1 put: %v", err)
				}
				if err := GetAll(p, h.eps[1], []Buffer{r1}); err != nil {
					t.Errorf("rank1 get: %v", err)
				}
			})
			h.eng.Run()
			if !bytes.Equal(s0b, r1b) || !bytes.Equal(s1b, r0b) {
				t.Fatal("bidirectional payload corrupted")
			}
		})
	}
}

// exchangeProgress interleaves put and get progress on one endpoint, the
// way the CH3 progress engine drives the channel, so that simultaneous
// large (rendezvous) transfers in both directions complete.
func exchangeProgress(t *testing.T, p *des.Proc, e Endpoint, out, in []Buffer) {
	t.Helper()
	for len(out) > 0 || len(in) > 0 {
		seq := e.EventSeq()
		progressed := false
		if len(out) > 0 {
			n, err := e.Put(p, out)
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if n > 0 {
				out = Advance(out, n)
				progressed = true
			}
		}
		if len(in) > 0 {
			n, err := e.Get(p, in)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if n > 0 {
				in = Advance(in, n)
				progressed = true
			}
		}
		if !progressed {
			e.WaitEventSince(p, seq)
		}
	}
}

// TestSimultaneousRendezvousNeedsProgress: both ranks send a zero-copy
// (rendezvous) message at the same time. With interleaved progress — the
// CH3 progress-engine pattern — the exchange completes and the payloads
// arrive intact.
func TestSimultaneousRendezvousNeedsProgress(t *testing.T) {
	h := newHarness(t, Config{Design: DesignZeroCopy})
	const size = 256 << 10
	s0, s0b := h.alloc(0, size)
	r0, r0b := h.alloc(0, size)
	s1, s1b := h.alloc(1, size)
	r1, r1b := h.alloc(1, size)
	rand.New(rand.NewSource(1)).Read(s0b)
	rand.New(rand.NewSource(2)).Read(s1b)
	h.eng.Spawn("rank0", func(p *des.Proc) {
		exchangeProgress(t, p, h.eps[0], []Buffer{s0}, []Buffer{r0})
	})
	h.eng.Spawn("rank1", func(p *des.Proc) {
		exchangeProgress(t, p, h.eps[1], []Buffer{s1}, []Buffer{r1})
	})
	h.eng.Run()
	if !bytes.Equal(s0b, r1b) || !bytes.Equal(s1b, r0b) {
		t.Fatal("simultaneous rendezvous corrupted payloads")
	}
}

// TestScatteredBuffers drives Put/Get with multi-element buffer lists.
func TestScatteredBuffers(t *testing.T) {
	for _, d := range allDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			h := newHarness(t, Config{Design: d})
			parts := []int{64, 700, 9000, 5}
			var sb, rb []Buffer
			var sbb, rbb [][]byte
			for i, n := range parts {
				b, bb := h.alloc(0, n)
				for j := range bb {
					bb[j] = byte(i + j*3)
				}
				sb = append(sb, b)
				sbb = append(sbb, bb)
				b2, bb2 := h.alloc(1, n)
				rb = append(rb, b2)
				rbb = append(rbb, bb2)
			}
			h.eng.Spawn("sender", func(p *des.Proc) {
				if err := PutAll(p, h.eps[0], sb); err != nil {
					t.Errorf("put: %v", err)
				}
			})
			h.eng.Spawn("receiver", func(p *des.Proc) {
				if err := GetAll(p, h.eps[1], rb); err != nil {
					t.Errorf("get: %v", err)
				}
			})
			h.eng.Run()
			for i := range sbb {
				if !bytes.Equal(sbb[i], rbb[i]) {
					t.Fatalf("part %d corrupted", i)
				}
			}
		})
	}
}

// measureLatency returns one-way channel-level latency for a message size.
func measureLatency(t *testing.T, cfg Config, size, iters int) des.Time {
	t.Helper()
	h := newHarness(t, cfg)
	sb, _ := h.alloc(0, size)
	rb0, _ := h.alloc(0, size)
	rb1, _ := h.alloc(1, size)
	sb1, _ := h.alloc(1, size)
	var total des.Time
	h.eng.Spawn("rank0", func(p *des.Proc) {
		// Warmup round.
		pingPong(t, p, h.eps[0], sb, rb0, 1)
		start := p.Now()
		pingPong(t, p, h.eps[0], sb, rb0, iters)
		total = p.Now() - start
	})
	h.eng.Spawn("rank1", func(p *des.Proc) {
		pongPing(t, p, h.eps[1], rb1, sb1, iters+1)
	})
	h.eng.Run()
	return total / des.Time(2*iters)
}

func pingPong(t *testing.T, p *des.Proc, e Endpoint, out, in Buffer, iters int) {
	t.Helper()
	for i := 0; i < iters; i++ {
		if err := PutAll(p, e, []Buffer{out}); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if err := GetAll(p, e, []Buffer{in}); err != nil {
			t.Errorf("get: %v", err)
			return
		}
	}
}

func pongPing(t *testing.T, p *des.Proc, e Endpoint, in, out Buffer, iters int) {
	t.Helper()
	for i := 0; i < iters; i++ {
		if err := GetAll(p, e, []Buffer{in}); err != nil {
			t.Errorf("get: %v", err)
			return
		}
		if err := PutAll(p, e, []Buffer{out}); err != nil {
			t.Errorf("put: %v", err)
			return
		}
	}
}

// measureBW returns the channel-level bandwidth (MB/s) for back-to-back
// messages of the given size, paper window style.
func measureBW(t *testing.T, cfg Config, size, count int) float64 {
	t.Helper()
	h := newHarness(t, cfg)
	sb, _ := h.alloc(0, size)
	rb, _ := h.alloc(1, size)
	ack0, _ := h.alloc(0, 4)
	ack1, _ := h.alloc(1, 4)
	var rate float64
	h.eng.Spawn("sender", func(p *des.Proc) {
		// Warmup.
		if err := PutAll(p, h.eps[0], []Buffer{sb}); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if err := GetAll(p, h.eps[0], []Buffer{ack0}); err != nil {
			t.Errorf("ack: %v", err)
			return
		}
		start := p.Now()
		for i := 0; i < count; i++ {
			if err := PutAll(p, h.eps[0], []Buffer{sb}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		if err := GetAll(p, h.eps[0], []Buffer{ack0}); err != nil {
			t.Errorf("ack: %v", err)
			return
		}
		rate = float64(size*count) / (p.Now() - start).Micros()
	})
	h.eng.Spawn("receiver", func(p *des.Proc) {
		if err := GetAll(p, h.eps[1], []Buffer{rb}); err != nil {
			t.Errorf("get: %v", err)
			return
		}
		if err := PutAll(p, h.eps[1], []Buffer{ack1}); err != nil {
			t.Errorf("ack: %v", err)
			return
		}
		for i := 0; i < count; i++ {
			if err := GetAll(p, h.eps[1], []Buffer{rb}); err != nil {
				t.Errorf("get: %v", err)
				return
			}
		}
		if err := PutAll(p, h.eps[1], []Buffer{ack1}); err != nil {
			t.Errorf("ack: %v", err)
		}
	})
	h.eng.Run()
	return rate
}

func TestLatencyShapes(t *testing.T) {
	basic := measureLatency(t, Config{Design: DesignBasic}, 4, 10)
	piggy := measureLatency(t, Config{Design: DesignPiggyback}, 4, 10)
	zc := measureLatency(t, Config{Design: DesignZeroCopy}, 4, 10)

	// Paper: 18.6 µs basic vs 7.4 µs piggyback vs 7.6 µs zero-copy, at the
	// MPI level. Channel level runs ~1.2 µs lower (no MPI bookkeeping).
	if basic.Micros() < 13 || basic.Micros() > 20 {
		t.Errorf("basic latency = %v, want ~17µs", basic)
	}
	if piggy.Micros() < 5 || piggy.Micros() > 8 {
		t.Errorf("piggyback latency = %v, want ~6.3µs", piggy)
	}
	if ratio := basic.Micros() / piggy.Micros(); ratio < 2.0 || ratio > 3.2 {
		t.Errorf("basic/piggyback = %.2f, paper ratio ≈ 2.5", ratio)
	}
	if zc <= piggy {
		t.Errorf("zero-copy small latency %v should slightly exceed piggyback %v", zc, piggy)
	}
	if zc-piggy > des.Microsecond {
		t.Errorf("zero-copy latency penalty %v too large", zc-piggy)
	}
}

func TestBandwidthShapes(t *testing.T) {
	// Paper figure shapes: basic ≈230 MB/s, pipeline >500 at its peak and
	// ~450 at 1 MB, zero-copy ≈857 at 1 MB.
	basic64K := measureBW(t, Config{Design: DesignBasic}, 48<<10, 16)
	pipe64K := measureBW(t, Config{Design: DesignPipeline}, 64<<10, 16)
	pipe1M := measureBW(t, Config{Design: DesignPipeline}, 1<<20, 8)
	zc1M := measureBW(t, Config{Design: DesignZeroCopy}, 1<<20, 8)

	if basic64K < 180 || basic64K > 300 {
		t.Errorf("basic bandwidth = %.0f MB/s, want ~230", basic64K)
	}
	if pipe64K < 450 {
		t.Errorf("pipeline 64K bandwidth = %.0f MB/s, want > 450 (paper >500)", pipe64K)
	}
	if pipe64K <= basic64K {
		t.Errorf("pipeline %.0f should beat basic %.0f", pipe64K, basic64K)
	}
	if zc1M < 820 || zc1M > 875 {
		t.Errorf("zero-copy 1M bandwidth = %.0f MB/s, want ~857", zc1M)
	}
	if zc1M <= pipe1M {
		t.Errorf("zero-copy %.0f should beat pipeline %.0f at 1MB", zc1M, pipe1M)
	}
}

func TestRegCacheHitsOnReuse(t *testing.T) {
	h := newHarness(t, Config{Design: DesignZeroCopy})
	sb, _ := h.alloc(0, 256<<10)
	rb, _ := h.alloc(1, 256<<10)
	const rounds = 5
	h.eng.Spawn("sender", func(p *des.Proc) {
		for i := 0; i < rounds; i++ {
			if err := PutAll(p, h.eps[0], []Buffer{sb}); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})
	h.eng.Spawn("receiver", func(p *des.Proc) {
		for i := 0; i < rounds; i++ {
			if err := GetAll(p, h.eps[1], []Buffer{rb}); err != nil {
				t.Errorf("get: %v", err)
			}
		}
	})
	h.eng.Run()
	s := h.eps[0].Stats()
	if s.ZCSends != rounds {
		t.Fatalf("ZCSends = %d, want %d", s.ZCSends, rounds)
	}
	if rc := h.eps[0].(RawAccess).RailRegCache(0).Stats(); rc.Hits != rounds-1 || rc.Misses != 1 {
		t.Fatalf("sender regcache = %+v, want %d hits 1 miss", rc, rounds-1)
	}
}

func TestZeroCopyThresholdRespected(t *testing.T) {
	h := newHarness(t, Config{Design: DesignZeroCopy, ZCThreshold: 32 << 10})
	sb, _ := h.alloc(0, 20<<10) // below threshold: must go eager
	rb, _ := h.alloc(1, 20<<10)
	h.eng.Spawn("sender", func(p *des.Proc) {
		if err := PutAll(p, h.eps[0], []Buffer{sb}); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	h.eng.Spawn("receiver", func(p *des.Proc) {
		if err := GetAll(p, h.eps[1], []Buffer{rb}); err != nil {
			t.Errorf("get: %v", err)
		}
	})
	h.eng.Run()
	if s := h.eps[0].Stats(); s.ZCSends != 0 {
		t.Fatalf("20K message with 32K threshold used zero-copy")
	}
}

func TestDelayedCreditUpdates(t *testing.T) {
	// One-way traffic: explicit credit writes should be batched — roughly
	// one per CreditBatch chunks, not one per chunk (§4.3).
	h := newHarness(t, Config{Design: DesignPipeline})
	const msgs = 32
	sb, _ := h.alloc(0, 16<<10)
	rb, _ := h.alloc(1, 16<<10)
	h.eng.Spawn("sender", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			if err := PutAll(p, h.eps[0], []Buffer{sb}); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})
	h.eng.Spawn("receiver", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			if err := GetAll(p, h.eps[1], []Buffer{rb}); err != nil {
				t.Errorf("get: %v", err)
			}
		}
	})
	h.eng.Run()
	s := h.eps[1].Stats()
	chunks := h.eps[0].Stats().ChunksSent
	if s.CreditWrites == 0 {
		t.Fatal("no explicit credit writes in one-way traffic")
	}
	if s.CreditWrites > chunks/2 {
		t.Fatalf("credit writes = %d for %d chunks; updates not batched", s.CreditWrites, chunks)
	}
}

func TestPingPongPiggybacksCredits(t *testing.T) {
	// With bidirectional traffic, credits ride on reverse data chunks and
	// explicit credit messages should be rare or absent.
	h := newHarness(t, Config{Design: DesignPiggyback})
	sb0, _ := h.alloc(0, 1024)
	rb0, _ := h.alloc(0, 1024)
	sb1, _ := h.alloc(1, 1024)
	rb1, _ := h.alloc(1, 1024)
	const iters = 40
	h.eng.Spawn("rank0", func(p *des.Proc) { pingPong(t, p, h.eps[0], sb0, rb0, iters) })
	h.eng.Spawn("rank1", func(p *des.Proc) { pongPing(t, p, h.eps[1], rb1, sb1, iters) })
	h.eng.Run()
	if w := h.eps[0].Stats().CreditWrites + h.eps[1].Stats().CreditWrites; w > iters/4 {
		t.Fatalf("ping-pong produced %d explicit credit writes; piggybacking broken", w)
	}
}

// Property test: any random sequence of message sizes survives each design
// byte-for-byte.
func TestRandomizedTrafficProperty(t *testing.T) {
	for _, d := range allDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 4; trial++ {
				nMsgs := 1 + rng.Intn(6)
				var sizes []int
				for i := 0; i < nMsgs; i++ {
					max := 60000
					if d == DesignBasic {
						max = 30000
					}
					sizes = append(sizes, 1+rng.Intn(max))
				}
				h := newHarness(t, Config{Design: d})
				var sb, rb []Buffer
				var want, got [][]byte
				for _, s := range sizes {
					b, bb := h.alloc(0, s)
					rng.Read(bb)
					sb = append(sb, b)
					want = append(want, bb)
					b2, bb2 := h.alloc(1, s)
					rb = append(rb, b2)
					got = append(got, bb2)
				}
				h.eng.Spawn("sender", func(p *des.Proc) {
					for _, b := range sb {
						if err := PutAll(p, h.eps[0], []Buffer{b}); err != nil {
							t.Errorf("put: %v", err)
						}
					}
				})
				h.eng.Spawn("receiver", func(p *des.Proc) {
					for _, b := range rb {
						if err := GetAll(p, h.eps[1], []Buffer{b}); err != nil {
							t.Errorf("get: %v", err)
						}
					}
				})
				h.eng.Run()
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Fatalf("trial %d msg %d (size %d) corrupted", trial, i, sizes[i])
					}
				}
			}
		})
	}
}

func TestDeterministicTimings(t *testing.T) {
	run := func() des.Time {
		return measureLatency(t, Config{Design: DesignZeroCopy}, 1024, 5)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic latency: %v vs %v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	h := &harness{eng: des.NewEngine(), prm: model.Testbed()}
	fab := ib.NewFabric(h.eng, h.prm)
	n0, n1 := model.NewNode(0, h.prm), model.NewNode(1, h.prm)
	h0, h1 := fab.NewHCA(n0), fab.NewHCA(n1)
	h.eng.Spawn("setup", func(p *des.Proc) {
		if _, _, err := NewConnection(p, Config{Design: DesignPipeline, ChunkSize: 8}, h0, h1); err == nil {
			t.Error("tiny chunk size accepted")
		}
		if _, _, err := NewConnection(p, Config{Design: DesignPipeline, RingSize: 10000, ChunkSize: 4096}, h0, h1); err == nil {
			t.Error("non-multiple ring size accepted")
		}
	})
	h.eng.Run()
}

func TestDesignString(t *testing.T) {
	for d, want := range map[Design]string{
		DesignBasic: "basic", DesignPiggyback: "piggyback",
		DesignPipeline: "pipeline", DesignZeroCopy: "zerocopy",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", int(d), d.String())
		}
	}
	if s := fmt.Sprint(Design(99)); s != "Design(99)" {
		t.Errorf("unknown design = %q", s)
	}
}

// TestChunkRingBacksWhatChunksReach: the chunk ring and its staging mirror
// are slotted regions, so after a ping-pong that laps every slot three
// times the host backs only what is in flight plus the buffers released
// slots hand on, while the connection still registers and reports its full
// ring and staging mirror. A 4-byte packet backs one 64-byte line of a
// slot; a 16 KB message fills two chunks, and each region backs at most
// those two chunks, not one per slot.
func TestChunkRingBacksWhatChunksReach(t *testing.T) {
	for _, d := range []Design{DesignPiggyback, DesignPipeline, DesignZeroCopy} {
		t.Run(d.String(), func(t *testing.T) { testChunkRingBacking(t, d) })
	}
}

func testChunkRingBacking(t *testing.T, d Design) {
	for _, size := range []int{4, 16 << 10} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			h := newHarness(t, Config{Design: d})
			out0, _ := h.alloc(0, size)
			in0, _ := h.alloc(0, size)
			in1, _ := h.alloc(1, size)
			out1, _ := h.alloc(1, size)
			e := [2]*chunkEP{h.eps[0].(*chunkEP), h.eps[1].(*chunkEP)}
			per := (size + e[0].maxPayload - 1) / e[0].maxPayload
			iters := 3 * e[0].nChunks / per
			h.eng.Spawn("rank0", func(p *des.Proc) { pingPong(t, p, h.eps[0], out0, in0, iters) })
			h.eng.Spawn("rank1", func(p *des.Proc) { pongPing(t, p, h.eps[1], in1, out1, iters) })
			h.eng.Run()
			for i, ep := range e {
				mem := h.nodes[i].Mem
				ring, staging := mem.Backed(ep.ringVA), mem.Backed(ep.stagingVA)
				t.Logf("side %d: ring %d, staging %d bytes", i, ring, staging)
				if limit := ep.nChunks * 64; size == 4 && (ring == 0 || ring > limit || staging == 0 || staging > limit) {
					t.Errorf("side %d: ring backs %d bytes and staging %d, want 1..%d each", i, ring, staging, limit)
				}
				if limit := 2 * per * ep.cfg.ChunkSize; ring+staging > limit {
					t.Errorf("side %d: ring and staging back %d bytes, more than the %d of a message's %d chunks on each",
						i, ring+staging, limit, per)
				}
				if got, want := ep.Footprint().EagerBytes, int64(2*ep.cfg.RingSize); got != want {
					t.Errorf("side %d: footprint reports %d eager bytes, want %d", i, got, want)
				}
			}
		})
	}
}
