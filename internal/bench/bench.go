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

// scope is the figure: a run that printed it printed all its series.
func (c Curve) scope() string { return c.Figure }

func (Curve) schema() string { return "mpich2ib/curves/v1" }

func (Curve) wall() (float64, string) { return 0, "" }

// diff names a moved point by its label or, unlabelled, its size.
func (c Curve) diff(b Curve) []Delta {
	if len(c.Points) != len(b.Points) {
		return []Delta{{Field: "points", Line: fmt.Sprintf("%d points, baseline has %d", len(c.Points), len(b.Points))}}
	}
	var ds []Delta
	for i, p := range c.Points {
		if p != b.Points[i] {
			field := p.Label
			if field == "" {
				field = fmt.Sprintf("size=%d", p.Size)
			}
			ds = append(ds, Delta{Field: field, Line: fmt.Sprintf("%v, baseline %v", p, b.Points[i])})
		}
	}
	return ds
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

// sweep measures one point per size, each on a fresh np-rank cluster:
// body runs on every rank and sets the point's value through v, and
// Observe sees the cluster after the launch, before it is torn down.
func (o Options) sweep(np int, sizes []int, body func(comm *mpi.Comm, size int, v *float64)) []Point {
	pts := make([]Point, 0, len(sizes))
	for _, size := range sizes {
		cfg := o.Config
		cfg.NP = np
		c := cluster.MustNew(cfg)
		var v float64
		c.Launch(func(comm *mpi.Comm) { body(comm, size, &v) })
		if o.Observe != nil {
			o.Observe(c)
		}
		c.Close()
		pts = append(pts, Point{Size: size, Value: v})
	}
	return pts
}

// MPILatency measures one-way MPI latency (round-trip/2 of a ping-pong,
// §4.2.1) in microseconds for each message size.
func MPILatency(o Options, sizes []int, iters int) Series {
	pts := o.sweep(2, sizes, func(comm *mpi.Comm, size int, oneWay *float64) {
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
			*oneWay = (comm.Wtime() - start) / float64(2*iters) * 1e6
		} else {
			for i := 0; i < iters+1; i++ {
				comm.Recv(rb, 0, 0)
				comm.Send(sb, 0, 0)
			}
		}
	})
	return Series{Name: o.Transport.String(), Points: pts}
}

// MPIBandwidth measures streaming bandwidth (MB/s, MB = 10^6 bytes) with
// the paper's window test: W back-to-back messages, then a wait, repeated.
func MPIBandwidth(o Options, sizes []int) Series {
	pts := o.sweep(2, sizes, func(comm *mpi.Comm, size int, rate *float64) {
		w := windowFor(size)
		const windows = 3
		buf, _ := comm.Alloc(size)
		ack, _ := comm.Alloc(4)
		sender := comm.Rank() == 0
		runWindow(comm, buf, ack, w/2+1, sender) // warmup
		start := comm.Wtime()
		for k := 0; k < windows; k++ {
			runWindow(comm, buf, ack, w, sender)
		}
		if sender {
			*rate = float64(size*w*windows) / ((comm.Wtime() - start) * 1e6)
		}
	})
	return Series{Name: o.Transport.String(), Points: pts}
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
	r := newRawPair(prm)
	var rate float64
	r.run(func(p *des.Proc) {
		acc := ib.AccessLocalWrite | ib.AccessRemoteWrite | ib.AccessRemoteRead
		lva, _, lmr := r.region(p, 0, size, acc)
		rva, _, rmr := r.region(p, 1, size, acc)
		post := func(signaled bool) {
			r.qp[0].PostSend(p, ib.SendWR{
				Op: op, Signaled: signaled,
				SGL:        []ib.SGE{{Addr: lva, Len: size, LKey: lmr.LKey()}},
				RemoteAddr: rva, RKey: rmr.RKey(),
			})
		}
		post(true) // warmup
		r.scq.Poll(p)
		start := p.Now()
		for i := 0; i < count; i++ {
			post(true)
		}
		for i := 0; i < count; i++ {
			r.scq.Poll(p)
		}
		rate = float64(size*count) / (p.Now() - start).Micros()
	})
	return rate
}

// VerbsLatency measures raw one-way small-message RDMA write latency
// (the paper's 5.9 µs baseline), in microseconds.
func VerbsLatency(prm *model.Params) float64 {
	r := newRawPair(prm)
	var lat float64
	const iters = 20
	r.run(func(p *des.Proc) {
		acc := ib.AccessLocalWrite | ib.AccessRemoteWrite
		lva, lb, lmr := r.region(p, 0, 64, acc)
		rva0, rb0, pad0mr := r.region(p, 0, 64, acc) // landing pad on node 0
		// Exchange with r1 happens via shared Go state in this raw bench.
		r1lva, r1lb, r1lmr := r.region(p, 1, 64, acc)
		r1pva, r1pb, r1pmr := r.region(p, 1, 64, acc)

		r.eng.Spawn("r1", func(q *des.Proc) {
			for i := 0; i < iters+1; i++ {
				seq := byte(i + 1)
				r.h[1].WaitMemory(q, func() bool { return r1pb[63] == seq })
				r1lb[63] = seq
				r.qp[1].PostSend(q, ib.SendWR{
					Op:         ib.OpRDMAWrite,
					SGL:        []ib.SGE{{Addr: r1lva, Len: 64, LKey: r1lmr.LKey()}},
					RemoteAddr: rva0, RKey: pad0mr.RKey(),
				})
			}
		})

		pingpong := func(i int) {
			seq := byte(i + 1)
			lb[63] = seq
			r.qp[0].PostSend(p, ib.SendWR{
				Op:         ib.OpRDMAWrite,
				SGL:        []ib.SGE{{Addr: lva, Len: 64, LKey: lmr.LKey()}},
				RemoteAddr: r1pva, RKey: r1pmr.RKey(),
			})
			r.h[0].WaitMemory(p, func() bool { return rb0[63] == seq })
		}
		pingpong(0) // warmup
		start := p.Now()
		for i := 1; i <= iters; i++ {
			pingpong(i)
		}
		lat = (p.Now() - start).Micros() / float64(2*iters)
	})
	return lat
}

// rawPair is the raw verbs benches' testbed: two nodes, one adapter each,
// joined by one connected queue pair; scq is qp[0]'s send CQ.
type rawPair struct {
	eng *des.Engine
	n   [2]*model.Node
	h   [2]*ib.HCA
	pd  [2]*ib.PD
	qp  [2]*ib.QP
	scq *ib.CQ
}

func newRawPair(prm *model.Params) *rawPair {
	if prm == nil {
		prm = model.Testbed()
	}
	r := &rawPair{eng: des.NewEngine()}
	fab := ib.NewFabric(r.eng, prm)
	r.n = [2]*model.Node{model.NewNode(0, prm), model.NewNode(1, prm)}
	r.h = [2]*ib.HCA{fab.NewHCA(r.n[0]), fab.NewHCA(r.n[1])}
	r.pd = [2]*ib.PD{r.h[0].AllocPD(), r.h[1].AllocPD()}
	r.scq = r.h[0].CreateCQ()
	r.qp[0] = r.h[0].CreateQP(r.pd[0], r.scq, r.h[0].CreateCQ())
	r.qp[1] = r.h[1].CreateQP(r.pd[1], r.h[1].CreateCQ(), r.h[1].CreateCQ())
	if err := ib.Connect(r.qp[0], r.qp[1]); err != nil {
		panic(err)
	}
	return r
}

// region allocates n bytes on node i and registers them with acc.
func (r *rawPair) region(p *des.Proc, i, n int, acc ib.Access) (uint64, []byte, *ib.MR) {
	va, b := r.n[i].Mem.Alloc(n)
	mr, err := r.h[i].RegisterMR(p, r.pd[i], va, n, acc)
	if err != nil {
		panic(err)
	}
	return va, b, mr
}

// run drives body to the end of the simulation and tears the engine down.
func (r *rawPair) run(body func(p *des.Proc)) {
	r.eng.Spawn("driver", body)
	r.eng.Run()
	r.eng.Shutdown()
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
