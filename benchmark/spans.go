package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/des"
)

// spanRec is the traced pass's in-memory span recorder. Spans are taken
// from the benchmark's own files, around the calls into each layer:
// workload → rep → cluster.New / Launch / Close / ladder driver on the host
// clock, plus rank 0's per-size phases on the simulated clock for the rank
// bodies the benchmark owns. A nil recorder records nothing, which is how
// the untraced pass runs.
type spanRec struct {
	mu    sync.Mutex // rank bodies of a sharded cluster run on other threads
	t0    time.Time
	runID string
	spans []span
}

type span struct {
	id, parent int // parent 0 = root
	name       string
	sim        bool    // simulated clock (else host)
	start, end float64 // µs since t0 (host) or simulated µs
}

func newSpanRec(runID string) *spanRec {
	return &spanRec{t0: time.Now(), runID: runID}
}

// begin opens a host-clock span and returns its id.
func (r *spanRec) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := float64(time.Since(r.t0).Nanoseconds()) / 1e3
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, start: now, end: -1})
	return len(r.spans)
}

func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	now := float64(time.Since(r.t0).Nanoseconds()) / 1e3
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// simSpan records a finished simulated-clock span under a host span.
func (r *spanRec) simSpan(parent int, name string, start, end des.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name,
		sim: true, start: start.Micros(), end: end.Micros()})
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps every closed span as Chrome-trace JSON: process 1 is the host
// clock, process 2 the simulated clock (its timestamps are simulated µs).
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < s.start {
			continue
		}
		ev := chromeEvent{Name: s.name, Cat: "host", Ph: "X", Ts: s.start, Dur: s.end - s.start,
			Pid: 1, Tid: 1, Args: map[string]any{"id": s.id, "parent": s.parent, "run": r.runID}}
		if s.sim {
			ev.Cat, ev.Pid = "simulated", 2
		}
		events = append(events, ev)
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
