package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/des"
)

// Kind is a failure event type.
type Kind int

// Failure event kinds.
const (
	// LinkDown fails one rail's link on one node: every connection through
	// the adapter breaks (queued work flushes with error completions) until
	// the pair is re-dialed over a surviving rail. When Event.For is
	// non-zero the link is restored after that long.
	LinkDown Kind = iota
	// LinkUp restores a previously downed link. Broken connections stay
	// broken; the rail becomes eligible for new establishment again.
	LinkUp
	// HCADown fails the adapter permanently — a LinkDown that never
	// restores, regardless of Event.For.
	HCADown
	// DropBurst opens a packet-drop window of length Event.For on the rail:
	// sends back off and retransmit under the bounded transport retry
	// budget instead of failing outright.
	DropBurst
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case HCADown:
		return "hca-down"
	case DropBurst:
		return "drop-burst"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled failure. At is relative to the moment the cluster
// finishes setup, so a plan is independent of wiring mode and rail count.
type Event struct {
	At   des.Time // offset from end of cluster setup
	Kind Kind
	Node int      // target node
	Rail int      // target rail (adapter) on the node
	For  des.Time // outage/window length; 0 on LinkDown = stays down
}

func (e Event) String() string {
	return fmt.Sprintf("%v node=%d rail=%d at=%v for=%v", e.Kind, e.Node, e.Rail, e.At, e.For)
}

// Plan is a replayable failure schedule. The zero value is a valid empty
// plan: it injects nothing but still switches the stack into resilient
// mode, which is how failure-free baselines for chaos comparisons are run.
type Plan struct {
	Events []Event
}

// Sorted returns the events in firing order (stable on ties).
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks every event is a known kind at a non-negative offset and
// targets an existing node and rail. The error names the event's field
// ("Events[2].Rail 1: …") so a caller can prefix its own path.
func (p *Plan) Validate(nodes, rails int) error {
	for i, ev := range p.Events {
		switch {
		case ev.Kind < LinkDown || ev.Kind > DropBurst:
			return fmt.Errorf("Events[%d].Kind %d: unknown kind", i, int(ev.Kind))
		case ev.At < 0 || ev.For < 0:
			return fmt.Errorf("Events[%d] (%v): negative time", i, ev)
		case ev.Node < 0 || ev.Node >= nodes:
			return fmt.Errorf("Events[%d].Node %d: out of range [0, %d)", i, ev.Node, nodes)
		case ev.Rail < 0 || ev.Rail >= rails:
			return fmt.Errorf("Events[%d].Rail %d: out of range [0, %d)", i, ev.Rail, rails)
		}
	}
	return nil
}

// GenConfig parameterizes the seeded schedule generator.
type GenConfig struct {
	Seed    int64
	Nodes   int
	Rails   int
	Horizon des.Time // events land in (0, Horizon]
	Events  int      // how many failures to draw
	Kinds   []Kind   // kinds to draw from; nil = {LinkDown, DropBurst}

	// MinFor/MaxFor bound outage and drop-window lengths. Defaults keep
	// generated schedules survivable: transient link outages, and bursts
	// short enough for the transport retry budget to outlast.
	MinFor, MaxFor des.Time

	// SpareRail keeps the named rail untouched (<0 = none). The chunk-ring
	// transport carries its credit/ack counters on rail 0, whose loss is
	// connection-fatal by design, so chaos runs against it spare rail 0.
	SpareRail int
}

// Generate draws a replayable random schedule: the same configuration
// always yields the same plan. Link outages are laid out in disjoint time
// slices so at most one generated outage is in progress at a time — a
// survivability constraint, not a correctness one (recovery handles
// overlap; generated chaos just should not partition the fabric).
func Generate(gc GenConfig) *Plan {
	rng := rand.New(rand.NewSource(gc.Seed))
	kinds := gc.Kinds
	if kinds == nil {
		kinds = []Kind{LinkDown, DropBurst}
	}
	minFor, maxFor := gc.MinFor, gc.MaxFor
	if minFor <= 0 {
		minFor = 20 * des.Microsecond
	}
	if maxFor < minFor {
		maxFor = minFor + 200*des.Microsecond
	}
	p := &Plan{}
	if gc.Events <= 0 || gc.Nodes <= 0 || gc.Rails <= 0 || gc.Horizon <= 0 {
		return p
	}
	slice := gc.Horizon / des.Time(gc.Events)
	for i := 0; i < gc.Events; i++ {
		ev := Event{
			Kind: kinds[rng.Intn(len(kinds))],
			Node: rng.Intn(gc.Nodes),
			Rail: rng.Intn(gc.Rails),
			For:  minFor + des.Time(rng.Int63n(int64(maxFor-minFor)+1)),
		}
		if gc.SpareRail >= 0 && gc.Rails > 1 && ev.Rail == gc.SpareRail {
			ev.Rail = (ev.Rail + 1 + rng.Intn(gc.Rails-1)) % gc.Rails
		}
		// Place the event inside its own slice and clip the outage to end
		// before the slice does, keeping generated outages disjoint.
		lo := slice * des.Time(i)
		ev.At = lo + 1 + des.Time(rng.Int63n(int64(slice/2)+1))
		if ev.Kind == LinkDown || ev.Kind == DropBurst {
			if maxAt := lo + slice - ev.At; ev.For > maxAt {
				ev.For = maxAt
			}
			if ev.For < minFor/2 {
				ev.For = minFor / 2
			}
		}
		p.Events = append(p.Events, ev)
	}
	return p
}
