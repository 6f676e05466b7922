package des

// Step is one link of a sleep chain: D of simulated time that the process
// would otherwise spend in Hops back-to-back Sleeps with nothing looked at
// in between (a two-part charge is Hops 2, D the sum). The process can only
// act on a change at the end of a step, never inside one.
//
// Eliding a step's wakes is exact — same wake instant, same position among
// same-instant events, same lineage key base afterwards — when the last hop
// of the step is a positive sleep, because a wake pending since an earlier
// instant is placed by (time, key) alone. A step ending in a zero-length
// hop still sleeps D, but may order differently among same-instant events
// than the Sleep loop would.
type Step struct {
	D    Time
	Hops int
}

func (s Step) check() {
	if s.D < 0 || s.Hops < 1 {
		panic("des: Step needs D >= 0 and Hops >= 1")
	}
}
