package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/mpi"
)

// Point is one x/y sample of a series. Label, when set, names the point's
// row in place of its size: a NAS figure's rows are kernels, and Size is
// the rank count the kernel ran at.
type Point struct {
	Size  int     `json:"size"`
	Value float64 `json:"value"`
	Label string  `json:"label,omitempty"`
}

func (p Point) String() string {
	if p.Label != "" {
		return fmt.Sprintf("%s size=%d: %v", p.Label, p.Size, p.Value)
	}
	return fmt.Sprintf("size=%d: %v", p.Size, p.Value)
}

// Series is a named curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced table/figure: the same rows/series the paper
// plots. Notes carry side observations — counter totals, caveats — that
// FormatFigure prints under the table.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Curve is one series of a printed figure as a baseline row (report.go):
// its points are simulated results, compared exactly, and it carries no
// wall figure. The figure id names what sets the curve apart from its
// siblings in other runs (the rail policy, the collective's net and
// layout), so a run nothing has vetted is a missing row, not a diverging
// one.
type Curve struct {
	Figure string  `json:"figure"`
	Series string  `json:"series"`
	Points []Point `json:"points"`
}

// Curves turns the figures a command printed into a report, one row per
// series.
func Curves(figs ...Figure) *Report[Curve] {
	rep := NewReport[Curve]()
	for _, f := range figs {
		for _, s := range f.Series {
			rep.Runs = append(rep.Runs, Curve{Figure: f.ID, Series: s.Name, Points: s.Points})
		}
	}
	return rep
}

func (c Curve) key() string { return c.Figure + "/" + c.Series }

func (Curve) schema() string { return "mpich2ib/curves/v1" }

func (Curve) wall() (float64, string) { return 0, "" }

func (c Curve) diff(b Curve) []string {
	if len(c.Points) != len(b.Points) {
		return []string{fmt.Sprintf("%d points, baseline has %d", len(c.Points), len(b.Points))}
	}
	var lines []string
	for i, p := range c.Points {
		if p != b.Points[i] {
			lines = append(lines, fmt.Sprintf("%v, baseline %v", p, b.Points[i]))
		}
	}
	return lines
}

// Paper-style size axes (powers of four, as on the figures' x-axes).
func sizesPow4(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 4 {
		out = append(out, s)
	}
	return out
}

// windowFor bounds the per-window message count so large-message sweeps
// stay tractable while small messages amortize startup, as in the paper's
// "predefined window size W" test.
func windowFor(size int) int {
	w := (4 << 20) / size
	if w > 64 {
		w = 64
	}
	if w < 8 {
		w = 8
	}
	return w
}

// Options configures a measurement run: the cluster each measurement
// builds, its NP set by the measurement.
type Options struct {
	cluster.Config

	// Observe, when set, runs against each measurement cluster after its
	// launches finish and before it is torn down — the hook ablations use
	// to read per-run counters (e.g. registration-cache statistics).
	Observe func(*cluster.Cluster)
}

func (o Options) cluster(np int) *cluster.Cluster {
	cfg := o.Config
	cfg.NP = np
	return cluster.MustNew(cfg)
}

// MPILatency measures one-way MPI latency (round-trip/2 of a ping-pong,
// §4.2.1) in microseconds for each message size.
func MPILatency(o Options, sizes []int, iters int) Series {
	s := Series{Name: o.Transport.String()}
	for _, size := range sizes {
		c := o.cluster(2)
		var oneWay float64
		c.Launch(func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(max(size, 1))
			rbuf, _ := comm.Alloc(max(size, 1))
			sb := mpi.Slice(buf, 0, size)
			rb := mpi.Slice(rbuf, 0, size)
			if comm.Rank() == 0 {
				comm.Send(sb, 1, 0)
				comm.Recv(rb, 1, 0) // warmup
				start := comm.Wtime()
				for i := 0; i < iters; i++ {
					comm.Send(sb, 1, 0)
					comm.Recv(rb, 1, 0)
				}
				oneWay = (comm.Wtime() - start) / float64(2*iters) * 1e6
			} else {
				for i := 0; i < iters+1; i++ {
					comm.Recv(rb, 0, 0)
					comm.Send(sb, 0, 0)
				}
			}
		})
		if o.Observe != nil {
			o.Observe(c)
		}
		c.Close()
		s.Points = append(s.Points, Point{Size: size, Value: oneWay})
	}
	return s
}

// MPIBandwidth measures streaming bandwidth (MB/s, MB = 10^6 bytes) with
// the paper's window test: W back-to-back messages, then a wait, repeated.
func MPIBandwidth(o Options, sizes []int) Series {
	s := Series{Name: o.Transport.String()}
	for _, size := range sizes {
		w := windowFor(size)
		const windows = 3
		c := o.cluster(2)
		var rate float64
		c.Launch(func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(size)
			ack, _ := comm.Alloc(4)
			if comm.Rank() == 0 {
				// Warmup window.
				runWindow(comm, buf, ack, w/2+1, true)
				start := comm.Wtime()
				for k := 0; k < windows; k++ {
					runWindow(comm, buf, ack, w, true)
				}
				elapsed := comm.Wtime() - start
				rate = float64(size*w*windows) / (elapsed * 1e6)
			} else {
				runWindow(comm, buf, ack, w/2+1, false)
				for k := 0; k < windows; k++ {
					runWindow(comm, buf, ack, w, false)
				}
			}
		})
		if o.Observe != nil {
			o.Observe(c)
		}
		c.Close()
		s.Points = append(s.Points, Point{Size: size, Value: rate})
	}
	return s
}

func runWindow(comm *mpi.Comm, buf, ack mpi.Buffer, w int, sender bool) {
	if sender {
		reqs := make([]*mpi.Request, w)
		for i := 0; i < w; i++ {
			reqs[i] = comm.Isend(buf, 1, 1)
		}
		comm.WaitAll(reqs...)
		comm.Recv(ack, 1, 2)
		return
	}
	reqs := make([]*mpi.Request, w)
	for i := 0; i < w; i++ {
		reqs[i] = comm.Irecv(buf, 0, 1)
	}
	comm.WaitAll(reqs...)
	comm.Send(ack, 0, 2)
}

// VerbsBandwidth measures raw RDMA bandwidth at the verbs level (Figure 15
// and the paper's 870 MB/s baseline).
func VerbsBandwidth(op ib.Opcode, sizes []int, prm *model.Params) Series {
	name := "RDMA Write"
	if op == ib.OpRDMARead {
		name = "RDMA Read"
	}
	s := Series{Name: name}
	for _, size := range sizes {
		s.Points = append(s.Points, Point{Size: size, Value: verbsBW(op, size, windowFor(size), prm)})
	}
	return s
}

func verbsBW(op ib.Opcode, size, count int, prm *model.Params) float64 {
	if prm == nil {
		prm = model.Testbed()
	}
	eng := des.NewEngine()
	fab := ib.NewFabric(eng, prm)
	n0, n1 := model.NewNode(0, prm), model.NewNode(1, prm)
	h0, h1 := fab.NewHCA(n0), fab.NewHCA(n1)
	pd0, pd1 := h0.AllocPD(), h1.AllocPD()
	cq0 := h0.CreateCQ()
	qp0 := h0.CreateQP(pd0, cq0, h0.CreateCQ())
	qp1 := h1.CreateQP(pd1, h1.CreateCQ(), h1.CreateCQ())
	if err := ib.Connect(qp0, qp1); err != nil {
		panic(err)
	}
	var rate float64
	eng.Spawn("driver", func(p *des.Proc) {
		lva, _ := n0.Mem.Alloc(size)
		rva, _ := n1.Mem.Alloc(size)
		acc := ib.AccessLocalWrite | ib.AccessRemoteWrite | ib.AccessRemoteRead
		lmr, err := h0.RegisterMR(p, pd0, lva, size, acc)
		if err != nil {
			panic(err)
		}
		rmr, err := h1.RegisterMR(p, pd1, rva, size, acc)
		if err != nil {
			panic(err)
		}
		post := func(signaled bool) {
			qp0.PostSend(p, ib.SendWR{
				Op: op, Signaled: signaled,
				SGL:        []ib.SGE{{Addr: lva, Len: size, LKey: lmr.LKey()}},
				RemoteAddr: rva, RKey: rmr.RKey(),
			})
		}
		post(true) // warmup
		cq0.Poll(p)
		start := p.Now()
		for i := 0; i < count; i++ {
			post(true)
		}
		for i := 0; i < count; i++ {
			cq0.Poll(p)
		}
		rate = float64(size*count) / (p.Now() - start).Micros()
	})
	eng.Run()
	eng.Shutdown()
	return rate
}

// VerbsLatency measures raw one-way small-message RDMA write latency
// (the paper's 5.9 µs baseline), in microseconds.
func VerbsLatency(prm *model.Params) float64 {
	if prm == nil {
		prm = model.Testbed()
	}
	eng := des.NewEngine()
	fab := ib.NewFabric(eng, prm)
	n0, n1 := model.NewNode(0, prm), model.NewNode(1, prm)
	h0, h1 := fab.NewHCA(n0), fab.NewHCA(n1)
	pd0, pd1 := h0.AllocPD(), h1.AllocPD()
	qp0 := h0.CreateQP(pd0, h0.CreateCQ(), h0.CreateCQ())
	qp1 := h1.CreateQP(pd1, h1.CreateCQ(), h1.CreateCQ())
	if err := ib.Connect(qp0, qp1); err != nil {
		panic(err)
	}
	var lat float64
	const iters = 20
	eng.Spawn("r0", func(p *des.Proc) {
		lva, lb := n0.Mem.Alloc(64)
		rva0, rb0 := n0.Mem.Alloc(64) // landing pad on node 0
		acc := ib.AccessLocalWrite | ib.AccessRemoteWrite
		lmr, _ := h0.RegisterMR(p, pd0, lva, 64, acc)
		pad0mr, _ := h0.RegisterMR(p, pd0, rva0, 64, acc)
		// Exchange with r1 happens via shared Go state in this raw bench.
		r1lva, r1lb := n1.Mem.Alloc(64)
		r1pva, r1pb := n1.Mem.Alloc(64)
		r1lmr, _ := h1.RegisterMR(p, pd1, r1lva, 64, acc)
		r1pmr, _ := h1.RegisterMR(p, pd1, r1pva, 64, acc)

		eng.Spawn("r1", func(q *des.Proc) {
			for i := 0; i < iters+1; i++ {
				seq := byte(i + 1)
				h1.WaitMemory(q, func() bool { return r1pb[63] == seq })
				r1lb[63] = seq
				qp1.PostSend(q, ib.SendWR{
					Op:         ib.OpRDMAWrite,
					SGL:        []ib.SGE{{Addr: r1lva, Len: 64, LKey: r1lmr.LKey()}},
					RemoteAddr: rva0, RKey: pad0mr.RKey(),
				})
			}
		})

		pingpong := func(i int) {
			seq := byte(i + 1)
			lb[63] = seq
			qp0.PostSend(p, ib.SendWR{
				Op:         ib.OpRDMAWrite,
				SGL:        []ib.SGE{{Addr: lva, Len: 64, LKey: lmr.LKey()}},
				RemoteAddr: r1pva, RKey: r1pmr.RKey(),
			})
			h0.WaitMemory(p, func() bool { return rb0[63] == seq })
		}
		pingpong(0) // warmup
		start := p.Now()
		for i := 1; i <= iters; i++ {
			pingpong(i)
		}
		lat = (p.Now() - start).Micros() / float64(2*iters)
	})
	eng.Run()
	eng.Shutdown()
	return lat
}

// FormatFigure renders a figure as an aligned text table, one row per
// message size (or per label, where the points carry one), one column per
// series — the rows behind the paper's plot. Columns widen to the longest
// series name (registry series like "barrier/dissemination" overflow the
// historical 16 characters).
func FormatFigure(f Figure) string {
	w := 16
	for _, s := range f.Series {
		if len(s.Name)+2 > w {
			w = len(s.Name) + 2
		}
	}
	rows := 0
	longest := 0
	for i, s := range f.Series {
		if len(s.Points) > rows {
			rows = len(s.Points)
			longest = i
		}
	}
	x := "size"
	if rows > 0 && f.Series[longest].Points[0].Label != "" {
		x = f.XLabel
	}
	out := fmt.Sprintf("%s: %s\n", f.ID, f.Title)
	out += fmt.Sprintf("  (%s vs %s)\n", f.YLabel, f.XLabel)
	header := fmt.Sprintf("  %-10s", x)
	for _, s := range f.Series {
		header += fmt.Sprintf("%*s", w, s.Name)
	}
	out += header + "\n"
	for i := 0; i < rows; i++ {
		p := f.Series[longest].Points[i]
		x := p.Label
		if x == "" {
			x = fmtSize(p.Size)
		}
		row := fmt.Sprintf("  %-10s", x)
		for _, s := range f.Series {
			if i < len(s.Points) {
				row += fmt.Sprintf("%*.1f", w, s.Points[i].Value)
			} else {
				row += fmt.Sprintf("%*s", w, "-")
			}
		}
		out += row + "\n"
	}
	for _, n := range f.Notes {
		out += "  note: " + n + "\n"
	}
	return out
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
