package fault

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
)

// eventBytes is the size of one event in FuzzPlanValidate's input: kind,
// node and rail as signed bytes, then At and For as signed 16-bit counts of
// microseconds. Small signed fields keep the fuzzer at the range edges.
const eventBytes = 7

// decodePlan reads as many whole events as raw holds.
func decodePlan(raw []byte) Plan {
	var p Plan
	for ; len(raw) >= eventBytes; raw = raw[eventBytes:] {
		p.Events = append(p.Events, Event{
			Kind: Kind(int8(raw[0])),
			Node: int(int8(raw[1])),
			Rail: int(int8(raw[2])),
			At:   des.Time(int16(binary.LittleEndian.Uint16(raw[3:]))) * des.Microsecond,
			For:  des.Time(int16(binary.LittleEndian.Uint16(raw[5:]))) * des.Microsecond,
		})
	}
	return p
}

// inRange is the fuzz oracle: what Validate must accept.
func inRange(ev Event, nodes, rails int) bool {
	return ev.Kind >= LinkDown && ev.Kind <= DropBurst && ev.At >= 0 && ev.For >= 0 &&
		ev.Node >= 0 && ev.Node < nodes && ev.Rail >= 0 && ev.Rail < rails
}

// FuzzPlanValidate: Validate never panics, accepts a plan exactly when every
// event's kind, times, node and rail are in range, and names the first event
// out of range, as Events[i], in every refusal. The committed corpus
// (testdata/fuzz/FuzzPlanValidate) holds one plan per refusal and accepted
// plans at the range edges.
func FuzzPlanValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, nodes, rails int8, raw []byte) {
		p := decodePlan(raw)
		err := p.Validate(int(nodes), int(rails))
		bad := -1
		for i, ev := range p.Events {
			if !inRange(ev, int(nodes), int(rails)) {
				bad = i
				break
			}
		}
		switch {
		case bad < 0 && err != nil:
			t.Fatalf("Validate(%d, %d) refused in-range plan %v: %v", nodes, rails, p.Events, err)
		case bad >= 0 && err == nil:
			t.Fatalf("Validate(%d, %d) accepted %v", nodes, rails, p.Events[bad])
		case bad >= 0 && !strings.HasPrefix(err.Error(), fmt.Sprintf("Events[%d]", bad)):
			t.Fatalf("Validate(%d, %d) refused %v as %q, not naming Events[%d]", nodes, rails, p.Events[bad], err, bad)
		}
	})
}
